package obs

import (
	"sync"
	"time"
)

// DefaultFlightCapacity bounds the flight recorder when Options leaves the
// capacity unset: enough to hold the recent control-plane history of a long
// fleet run without growing with run length.
const DefaultFlightCapacity = 4096

// FlightEvent is one structured control-plane decision retained by the
// flight recorder: admissions, barrier releases, faults, straggler flags.
// Timestamps come from node.Context.Now(), so DES runs record deterministic
// virtual-time stamps.
type FlightEvent struct {
	Seq    uint64    `json:"seq"` // monotonic, assigned by the recorder
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Node   string    `json:"node,omitempty"`   // e.g. "scheduler", "worker/3"
	Iter   int64     `json:"iter,omitempty"`   // kind-specific: round, epoch, iteration
	Value  float64   `json:"value,omitempty"`  // kind-specific payload
	Detail string    `json:"detail,omitempty"` // short free-form annotation
}

// FlightDump is the /debugz payload and the cluster.Result attachment:
// retained events oldest-first, plus how many older events the ring dropped.
type FlightDump struct {
	Capacity int           `json:"capacity"`
	Recorded uint64        `json:"recorded"` // total events ever recorded
	Dropped  uint64        `json:"dropped"`  // recorded - retained
	Events   []FlightEvent `json:"events"`
}

// Filter returns the dump's retained events of one kind, oldest-first.
func (d FlightDump) Filter(kind string) []FlightEvent {
	var out []FlightEvent
	for _, ev := range d.Events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// FlightRecorder is a bounded, concurrency-safe ring buffer of FlightEvents.
// Recording is O(1), never blocks on I/O, and never sends messages or
// schedules timers, preserving the obs determinism invariant. A nil recorder
// ignores writes.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int // index the next event lands in
	full bool
	seq  uint64 // total events recorded
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity)}
}

// Record appends one event, overwriting the oldest when full. The recorder
// assigns Seq; callers fill every other field.
func (r *FlightRecorder) Record(ev FlightEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Recorded returns the total number of events ever recorded (including
// those the ring has since overwritten).
func (r *FlightRecorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Events returns a copy of the retained events, oldest first.
func (r *FlightRecorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *FlightRecorder) eventsLocked() []FlightEvent {
	if !r.full {
		return append([]FlightEvent(nil), r.buf[:r.next]...)
	}
	out := make([]FlightEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Dump snapshots the recorder for /debugz and cluster.Result.
func (r *FlightRecorder) Dump() FlightDump {
	if r == nil {
		return FlightDump{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events := r.eventsLocked()
	return FlightDump{
		Capacity: len(r.buf),
		Recorded: r.seq,
		Dropped:  r.seq - uint64(len(events)),
		Events:   events,
	}
}
