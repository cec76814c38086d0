package faults

import (
	"math/rand"
	"sync"
	"time"

	"specsync/internal/des"
	"specsync/internal/node"
	"specsync/internal/obs"
)

// Filter evaluates a plan's message faults (partitions, drops, duplicates,
// delays) against individual sends. It is safe for concurrent use; under the
// single-threaded simulator the lock is uncontended and the decision
// sequence — and thus the run — is deterministic.
type Filter struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []msgRule
	parts []partRule
	m     *obs.FaultObs
}

type msgRule struct {
	kind  EventKind
	from  time.Duration // window [from, to); to == 0 means open-ended
	to    time.Duration
	rate  float64
	delay time.Duration
}

type partRule struct {
	from, to time.Duration
	a, b     map[node.ID]bool
}

// NewFilter compiles the plan's message-fault events. The ledger m may be
// nil.
func NewFilter(p *Plan, m *obs.FaultObs) *Filter {
	f := &Filter{
		rng: rand.New(rand.NewSource(p.Seed ^ 0x66696c746572)), // "filter"
		m:   m,
	}
	for _, ev := range p.Events {
		switch ev.Kind {
		case KindDrop, KindDuplicate, KindDelay:
			r := msgRule{kind: ev.Kind, from: ev.At, rate: ev.Rate, delay: ev.Delay}
			if ev.Duration > 0 {
				r.to = ev.At + ev.Duration
			}
			if r.rate == 0 {
				r.rate = 1
			}
			f.rules = append(f.rules, r)
		case KindPartition:
			pr := partRule{
				from: ev.At,
				to:   ev.At + ev.Duration,
				a:    make(map[node.ID]bool, len(ev.A)),
				b:    make(map[node.ID]bool, len(ev.B)),
			}
			for _, id := range ev.A {
				pr.a[node.ID(id)] = true
			}
			for _, id := range ev.B {
				pr.b[node.ID(id)] = true
			}
			f.parts = append(f.parts, pr)
		}
	}
	return f
}

// Empty reports whether the filter has no message-fault rules at all, so the
// injector can skip installing a hook.
func (f *Filter) Empty() bool { return len(f.rules) == 0 && len(f.parts) == 0 }

// Action evaluates one message sent at `elapsed` since run start. Partition
// drops are checked first (they are deterministic); probabilistic rules draw
// from the seeded stream only while their window is open, so rule evaluation
// order is stable. The zero verdict delivers normally.
func (f *Filter) Action(from, to node.ID, elapsed time.Duration) des.FaultAction {
	f.mu.Lock()
	defer f.mu.Unlock()

	for _, pr := range f.parts {
		if elapsed < pr.from || elapsed >= pr.to {
			continue
		}
		if (pr.a[from] && pr.b[to]) || (pr.b[from] && pr.a[to]) {
			f.m.Drop()
			return des.FaultAction{Drop: true}
		}
	}

	var act des.FaultAction
	for _, r := range f.rules {
		if elapsed < r.from || (r.to > 0 && elapsed >= r.to) {
			continue
		}
		if f.rng.Float64() >= r.rate {
			continue
		}
		switch r.kind {
		case KindDrop:
			f.m.Drop()
			return des.FaultAction{Drop: true}
		case KindDuplicate:
			if !act.Duplicate {
				f.m.Duplicate()
				act.Duplicate = true
			}
		case KindDelay:
			if act.Delay == 0 {
				f.m.Delay()
				act.Delay = r.delay
			}
		}
	}
	return act
}
