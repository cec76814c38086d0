package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// fuzzClock is a scheduler's node.Context for the fuzzer: the test moves the
// clock, sends are dropped, and timers fire when the clock passes them.
type fuzzClock struct {
	now    time.Time
	timers []fuzzTimer
}

type fuzzTimer struct {
	at   time.Time
	f    func()
	dead *bool
}

func (c *fuzzClock) Self() node.ID              { return node.Scheduler }
func (c *fuzzClock) Now() time.Time             { return c.now }
func (c *fuzzClock) Send(node.ID, wire.Message) {}
func (c *fuzzClock) Rand() *rand.Rand           { return nil }
func (c *fuzzClock) Logf(string, ...any)        {}
func (c *fuzzClock) After(d time.Duration, f func()) node.CancelFunc {
	dead := new(bool)
	c.timers = append(c.timers, fuzzTimer{at: c.now.Add(d), f: f, dead: dead})
	return func() { *dead = true }
}

// advance moves the clock by d and fires, in deadline order, every timer
// that falls due, including those the fired ones arm.
func (c *fuzzClock) advance(d time.Duration) {
	c.now = c.now.Add(d)
	for {
		sort.SliceStable(c.timers, func(i, j int) bool { return c.timers[i].at.Before(c.timers[j].at) })
		if len(c.timers) == 0 || c.timers[0].at.After(c.now) {
			return
		}
		t := c.timers[0]
		c.timers = c.timers[1:]
		if !*t.dead {
			t.f()
		}
	}
}

// fuzzScheduler builds a 4-slot scheduler of one of three shapes: ASP with
// adaptive speculation; a restarted SSP(1) scheduler with liveness and
// spans; a BSP scheduler with membership changes and one slot not joined.
func fuzzScheduler(tb testing.TB, shape uint8) *Scheduler {
	cfg := SchedulerConfig{Workers: 4, InitialSpan: 10 * time.Millisecond}
	switch shape % 3 {
	case 0:
		cfg.Scheme = scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	case 1:
		cfg.Scheme = scheme.Config{Base: scheme.SSP, Staleness: 1, Spec: scheme.SpecAdaptive}
		cfg.LivenessTimeout = 50 * time.Millisecond
		cfg.Generation = 1
		cfg.ReportSpans = true
	case 2:
		cfg.Scheme = scheme.Config{Base: scheme.BSP}
		routes, err := SplitRoutes(8, []int{0, 1})
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Routing = &RoutingTable{Epoch: 1, Shards: routes}
		cfg.ActiveWorkers = 3
	}
	s, err := NewScheduler(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// fuzzSenders are who a message may come from: the four worker slots, then
// senders the scheduler does not know as workers.
var fuzzSenders = []node.ID{
	node.WorkerID(0), node.WorkerID(1), node.WorkerID(2), node.WorkerID(3),
	node.WorkerID(4), node.WorkerID(1 << 20), node.ServerID(0), node.ID("intruder"),
}

// fuzzMessage builds the message a script step asks for: b[0] picks a
// notify, a NotifyV2, a heartbeat, a state report or a join request, and b[2]
// its iteration, shifted far out when b[0]'s top bit is set.
func fuzzMessage(b []byte) wire.Message {
	iter := int64(int8(b[2]))
	if b[0]&0x80 != 0 {
		iter <<= 40
	}
	switch b[0] % 5 {
	case 0:
		return &msg.Notify{Iter: iter}
	case 1:
		return &msg.NotifyV2{Iter: iter, Span: time.Duration(b[3]) * time.Millisecond}
	case 2:
		return &msg.Heartbeat{Iter: iter}
	case 3:
		return &msg.StateReport{Iter: iter, Clock: iter, Pushed: b[3]&1 != 0, Waiting: b[3]&2 != 0}
	default:
		return &msg.JoinReq{}
	}
}

// membership is what a message from a sender the scheduler does not know
// must leave alone: the gate and who is in the cluster.
type membership struct {
	released, epoch int64
	alive           []bool
	count           []int64
	gate            scheme.Gate
}

func membershipOf(s *Scheduler) membership {
	snap := s.Snapshot()
	return membership{
		released: snap.Released, epoch: snap.MembershipEpoch,
		alive: snap.Alive, count: snap.NotifyCount, gate: s.Gate(),
	}
}

// FuzzSchedulerReceive feeds a scheduler a stream of notifies, state reports,
// joins and heartbeats from its workers and from senders it does not know,
// with the clock moving (and timers firing) between them. It must not panic;
// no message may allocate more than a bound that no message field can move;
// and a message from a sender that is not one of its worker slots must leave
// the gate and the membership as they were.
func FuzzSchedulerReceive(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 10, 0, 1, 0, 10, 0, 2, 0, 10, 0, 3, 0, 10, 0, 0, 1, 5, 0, 1, 1, 5})
	f.Add(uint8(1), []byte{3, 0, 2, 2, 3, 1, 2, 0, 1, 2, 1, 30, 2, 3, 0, 200, 0, 4, 9, 1, 3, 5, 9, 2})
	f.Add(uint8(2), []byte{4, 3, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 4, 4, 0, 1, 4, 7, 0, 1, 0, 3, 0, 1})
	f.Add(uint8(0), []byte{0x80, 0, 100, 1, 0x85, 6, 0x7f, 1, 0x83, 7, 0x80, 3, 0x81, 5, 0x7f, 9})
	f.Fuzz(func(t *testing.T, shape uint8, script []byte) {
		s := fuzzScheduler(t, shape)
		clock := &fuzzClock{now: time.Unix(1_700_000_000, 0)}
		s.Init(clock)
		var before, after runtime.MemStats
		for k := 0; k+4 <= len(script); k += 4 {
			b := script[k : k+4]
			from := fuzzSenders[int(b[1])%len(fuzzSenders)]
			known := int(b[1])%len(fuzzSenders) < 4
			m := fuzzMessage(b)
			was := membershipOf(s)
			runtime.ReadMemStats(&before)
			s.Receive(from, m)
			runtime.ReadMemStats(&after)
			// The heaviest legitimate message is an epoch boundary's retune.
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("step %d: %T from %s allocated %d bytes", k/4, m, from, got)
			}
			if now := membershipOf(s); !known && (now.released != was.released || now.epoch != was.epoch ||
				!slices.Equal(now.alive, was.alive) || !slices.Equal(now.count, was.count) || now.gate != was.gate) {
				t.Fatalf("step %d: %T from unknown sender %s moved the gate or membership: %+v -> %+v", k/4, m, from, was, now)
			}
			clock.advance(time.Duration(b[3]) * time.Millisecond)
		}
	})
}
