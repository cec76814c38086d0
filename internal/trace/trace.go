// Package trace records the training-system events (pulls, pushes, aborts,
// re-syncs) that the paper's empirical analyses are built on, most notably
// the pushes-after-pull (PAP) distribution of Sec. III-A / Fig. 3.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// KindPull marks the completion of a parameter pull (worker has a fresh
	// local replica and starts computing).
	KindPull Kind = iota + 1
	// KindPush marks a fully acknowledged gradient push.
	KindPush
	// KindAbort marks a worker aborting its in-flight computation after a
	// re-sync instruction.
	KindAbort
	// KindReSync marks the scheduler issuing a re-sync instruction.
	KindReSync
	// KindStaleness carries the server-measured staleness of one push in
	// Value.
	KindStaleness
	// KindEpoch marks a scheduler epoch boundary (all workers pushed).
	KindEpoch
	// KindCrash marks a node failing (fault injection). Worker holds the
	// worker index, or -(shard+1) for server shards.
	KindCrash
	// KindRecover marks a crashed node restarting (and, for the scheduler,
	// an evicted worker being re-admitted). Worker follows the KindCrash
	// convention.
	KindRecover
	// KindEvict marks the scheduler removing a dead worker from membership;
	// Value carries the new membership epoch.
	KindEvict
	// KindDegrade marks a worker switching speculation paths after losing
	// (or regaining) the scheduler: Value 1 = entered broadcast-failover
	// degraded mode, Value 0 = returned to the centralized path.
	KindDegrade
	// KindJoin marks the scheduler admitting a new worker (elastic scale-up);
	// Value carries the new membership epoch.
	KindJoin
	// KindLeave marks the scheduler retiring a worker on a scale-plan event
	// (planned scale-down, as opposed to KindEvict's failure path); Value
	// carries the new membership epoch.
	KindLeave
	// KindMigrate marks the scheduler committing a shard migration; Worker is
	// -1, Iter holds the new routing epoch, and Value the migrated bytes.
	KindMigrate
	// KindStragglerFlag marks the straggler detector flagging a worker;
	// Value is 1 for a transient flag, 2 when promoted to sustained.
	KindStragglerFlag
	// KindStragglerClear marks a flagged worker's slowdown score returning
	// below threshold long enough to clear the flag.
	KindStragglerClear
	// KindSchemeSwitch marks the scheduler moving the fleet onto a new gate
	// (a gate policy's decision); Worker is SchedulerNode, Iter holds the
	// scheme epoch, and Value the base of the incoming gate.
	KindSchemeSwitch
	// KindClone marks the scheduler cloning a straggler's iteration onto a
	// spare worker; Worker is the straggling target, Iter the iteration the
	// clone starts from, and Value the spare slot.
	KindClone
	// KindCloneStop marks a clone being retired after its target recovered;
	// Worker is the target and Value the spare slot.
	KindCloneStop
)

// SchedulerNode is the Event.Worker sentinel for scheduler crash/recover
// events. Workers use their index and server shards use -(shard+1), so the
// scheduler needs a value outside both ranges (-1 already means
// "scheduler-wide" on epoch events).
const SchedulerNode = -1 << 20

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindPull:
		return "pull"
	case KindPush:
		return "push"
	case KindAbort:
		return "abort"
	case KindReSync:
		return "resync"
	case KindStaleness:
		return "staleness"
	case KindEpoch:
		return "epoch"
	case KindCrash:
		return "crash"
	case KindRecover:
		return "recover"
	case KindEvict:
		return "evict"
	case KindDegrade:
		return "degrade"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	case KindMigrate:
		return "migrate"
	case KindStragglerFlag:
		return "straggler-flag"
	case KindStragglerClear:
		return "straggler-clear"
	case KindSchemeSwitch:
		return "scheme-switch"
	case KindClone:
		return "clone"
	case KindCloneStop:
		return "clone-stop"
	default:
		return "unknown"
	}
}

// Event is one timestamped occurrence.
type Event struct {
	At     time.Time
	Worker int // worker index, or -1 for scheduler-wide events
	Kind   Kind
	Iter   int64
	Value  int64 // kind-specific payload (staleness count)
}

// Tracer receives events. Components hold a Tracer so tests can substitute
// their own sinks; a nil *Collector is a valid no-op Tracer.
type Tracer interface {
	Record(ev Event)
}

// Collector is a thread-safe in-memory event sink.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

var _ Tracer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements Tracer. Recording on a nil collector is a no-op, so
// components can unconditionally call their tracer.
func (c *Collector) Record(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of all recorded events in insertion order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Count returns the number of events of the given kind.
func (c *Collector) Count(k Kind) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// CountByWorker returns per-worker counts of the given kind.
func (c *Collector) CountByWorker(k Kind) map[int]int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int)
	for _, ev := range c.events {
		if ev.Kind == k {
			out[ev.Worker]++
		}
	}
	return out
}

// PAPConfig configures pushes-after-pull analysis.
type PAPConfig struct {
	// Interval is the bucket width (the paper uses 1 second).
	Interval time.Duration
	// Buckets is the number of intervals after each pull to analyze.
	Buckets int
}

// PAPResult holds, for each interval after a pull, the distribution of the
// number of pushes other workers made in that interval (paper Fig. 3).
type PAPResult struct {
	Interval time.Duration
	// PerBucket[k] lists one sample per (worker, pull) pair: the number of
	// peer pushes received in interval k after the pull.
	PerBucket [][]float64
}

// PAP computes the pushes-after-pull distribution from the collected trace.
func (c *Collector) PAP(cfg PAPConfig) PAPResult {
	events := c.Events()
	res := PAPResult{Interval: cfg.Interval, PerBucket: make([][]float64, cfg.Buckets)}
	if cfg.Interval <= 0 || cfg.Buckets <= 0 {
		return res
	}

	// Global and per-worker sorted push times.
	var allPushes []time.Time
	perWorker := map[int][]time.Time{}
	var pulls []Event
	for _, ev := range events {
		switch ev.Kind {
		case KindPush:
			allPushes = append(allPushes, ev.At)
			perWorker[ev.Worker] = append(perWorker[ev.Worker], ev.At)
		case KindPull:
			pulls = append(pulls, ev)
		}
	}
	sort.Slice(allPushes, func(i, j int) bool { return allPushes[i].Before(allPushes[j]) })
	for _, ts := range perWorker {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	}
	if len(allPushes) == 0 || len(pulls) == 0 {
		return res
	}
	horizon := allPushes[len(allPushes)-1]

	countIn := func(ts []time.Time, after, upTo time.Time) int {
		// Pushes in (after, upTo].
		lo := sort.Search(len(ts), func(i int) bool { return ts[i].After(after) })
		hi := sort.Search(len(ts), func(i int) bool { return ts[i].After(upTo) })
		return hi - lo
	}

	for _, pull := range pulls {
		for k := 0; k < cfg.Buckets; k++ {
			lo := pull.At.Add(time.Duration(k) * cfg.Interval)
			hi := pull.At.Add(time.Duration(k+1) * cfg.Interval)
			if hi.After(horizon) {
				// Truncated windows at the end of the trace would bias the
				// distribution toward zero; skip them.
				break
			}
			n := countIn(allPushes, lo, hi) - countIn(perWorker[pull.Worker], lo, hi)
			res.PerBucket[k] = append(res.PerBucket[k], float64(n))
		}
	}
	return res
}

// PushTimeline returns all push events sorted by time; the tuner tests and
// timeline figures use it.
func (c *Collector) PushTimeline() []Event {
	events := c.Events()
	var pushes []Event
	for _, ev := range events {
		if ev.Kind == KindPush {
			pushes = append(pushes, ev)
		}
	}
	sort.Slice(pushes, func(i, j int) bool { return pushes[i].At.Before(pushes[j].At) })
	return pushes
}
