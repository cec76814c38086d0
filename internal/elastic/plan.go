// Package elastic implements declarative scale plans for SpecSync clusters:
// schedules of worker join/leave and server add/remove events, with an
// injector for the deterministic simulator (internal/des).
//
// A Plan is pure data (JSON-serializable) and carries no randomness at all —
// the same plan against the same seeded run is bit-for-bit reproducible. The
// injector translates events into runtime actions: new nodes join the running
// network and announce themselves (JoinReq), departures and server-set
// changes are ScaleCmd messages injected into the scheduler, which owns the
// membership and routing protocol (internal/core/elastic.go).
package elastic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// EventKind enumerates the scale event types.
type EventKind string

const (
	// KindAddWorker starts worker Node at At; it joins the running cluster
	// via JoinReq and begins training at the cluster's current clock.
	KindAddWorker EventKind = "add-worker"
	// KindRemoveWorker retires worker Node at At: the scheduler stops it and
	// removes it from membership (planned departure, not a crash).
	KindRemoveWorker EventKind = "remove-worker"
	// KindAddServer starts server slot Node at At and rebalances the
	// parameter shards across the grown server set (live migration).
	KindAddServer EventKind = "add-server"
	// KindRemoveServer drains server slot Node at At: its parameters migrate
	// to the remaining servers, then the shard retires.
	KindRemoveServer EventKind = "remove-server"
)

// Event is one scheduled membership change.
type Event struct {
	// Kind selects the event type.
	Kind EventKind `json:"kind"`
	// At is the event's offset from run start.
	At time.Duration `json:"at"`
	// Node is the worker index or server slot the event targets.
	Node int `json:"node"`
}

// Plan is a deterministic scale schedule.
type Plan struct {
	// Events is the schedule; order does not matter (ties execute in slice
	// order).
	Events []Event `json:"events"`
}

// Validate reports structural errors in the plan.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("elastic: event %d: negative At %v", i, ev.At)
		}
		if ev.Node < 0 {
			return fmt.Errorf("elastic: event %d: negative node index", i)
		}
		switch ev.Kind {
		case KindAddWorker, KindRemoveWorker, KindAddServer, KindRemoveServer:
		default:
			return fmt.Errorf("elastic: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Empty reports whether the plan schedules nothing (runners treat an empty
// plan exactly like no plan, so the legacy path stays byte-identical).
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Sorted returns the events ordered by At (stable, so same-instant events
// keep their slice order).
func (p *Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// MaxWorkers returns the worker-slot capacity the plan needs on top of the
// initial cluster size: max(initial, highest added index + 1).
func (p *Plan) MaxWorkers(initial int) int {
	max := initial
	for _, ev := range p.Events {
		if ev.Kind == KindAddWorker && ev.Node+1 > max {
			max = ev.Node + 1
		}
	}
	return max
}

// MaxServers returns the server-slot capacity the plan needs:
// max(initial, highest added slot + 1).
func (p *Plan) MaxServers(initial int) int {
	max := initial
	for _, ev := range p.Events {
		if ev.Kind == KindAddServer && ev.Node+1 > max {
			max = ev.Node + 1
		}
	}
	return max
}

// JSON serializes the plan (durations as nanosecond integers).
func (p *Plan) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseJSON decodes and validates a plan, rejecting unknown fields (a
// misspelled "at" silently scheduling everything at time zero is too easy
// otherwise).
func ParseJSON(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("elastic: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// GrowShrink builds the canonical scale-out/scale-in plan behind the CLIs'
// -elastic flag: extraWorkers workers and extraServers servers join at upAt,
// and (when downAt > 0) leave again at downAt. Indices continue from the
// initial cluster shape, so a 4-worker cluster growing by 4 adds workers
// 4..7.
func GrowShrink(workers, extraWorkers, servers, extraServers int, upAt, downAt time.Duration) *Plan {
	p := &Plan{}
	for i := 0; i < extraWorkers; i++ {
		p.Events = append(p.Events, Event{Kind: KindAddWorker, At: upAt, Node: workers + i})
	}
	for i := 0; i < extraServers; i++ {
		p.Events = append(p.Events, Event{Kind: KindAddServer, At: upAt, Node: servers + i})
	}
	if downAt > 0 {
		for i := 0; i < extraWorkers; i++ {
			p.Events = append(p.Events, Event{Kind: KindRemoveWorker, At: downAt, Node: workers + i})
		}
		for i := 0; i < extraServers; i++ {
			p.Events = append(p.Events, Event{Kind: KindRemoveServer, At: downAt, Node: servers + i})
		}
	}
	return p
}
