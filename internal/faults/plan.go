// Package faults implements deterministic fault injection and recovery for
// SpecSync clusters: declarative, seedable plans of crash, restart,
// partition, and message-fault events, with an injector for the deterministic
// simulator (internal/des).
//
// A Plan is pure data (JSON-serializable); the injector translates it into
// runtime actions. All randomness comes from the plan's seed, so a simulated
// run under a fault plan is bit-for-bit reproducible.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// EventKind enumerates the fault event types.
type EventKind string

const (
	// KindCrashWorker crashes worker Node at At; RestartAfter > 0 restarts
	// it (as a fresh incarnation) that much later.
	KindCrashWorker EventKind = "crash-worker"
	// KindCrashServer crashes server shard Node at At; RestartAfter > 0
	// restarts it, restoring the most recent checkpoint when one exists.
	KindCrashServer EventKind = "crash-server"
	// KindCrashScheduler crashes the scheduler at At (Node is ignored —
	// there is exactly one); RestartAfter > 0 restarts it as a fresh
	// incarnation, restoring the most recent scheduler checkpoint when one
	// exists and rebuilding the rest of its state from worker StateReports.
	KindCrashScheduler EventKind = "crash-scheduler"
	// KindPartition drops every message between groups A and B (both
	// directions) during [At, At+Duration).
	KindPartition EventKind = "partition"
	// KindDrop drops each matching message with probability Rate during
	// [At, At+Duration).
	KindDrop EventKind = "drop"
	// KindDuplicate delivers each matching message twice with probability
	// Rate during [At, At+Duration).
	KindDuplicate EventKind = "duplicate"
	// KindDelay holds each matching message for Delay extra latency with
	// probability Rate during [At, At+Duration). Delayed messages may
	// arrive after later sends: this is the plan's reordering primitive.
	KindDelay EventKind = "delay"
)

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault type.
	Kind EventKind `json:"kind"`
	// At is the event's offset from run start.
	At time.Duration `json:"at"`
	// Node is the worker index (crash-worker) or shard index (crash-server).
	Node int `json:"node,omitempty"`
	// RestartAfter, for crash events, restarts the node this long after the
	// crash; zero means the node stays down.
	RestartAfter time.Duration `json:"restart_after,omitempty"`
	// Duration bounds partition and message-fault windows; zero for
	// message faults means the window never closes.
	Duration time.Duration `json:"duration,omitempty"`
	// A and B are the two sides of a partition (node ID strings, e.g.
	// "worker/0", "server/1", "scheduler").
	A []string `json:"a,omitempty"`
	B []string `json:"b,omitempty"`
	// Rate is the per-message probability for drop/duplicate/delay faults;
	// zero means 1 (every matching message).
	Rate float64 `json:"rate,omitempty"`
	// Delay is the extra latency for delay faults.
	Delay time.Duration `json:"delay,omitempty"`
}

// Plan is a deterministic fault schedule.
type Plan struct {
	// Seed drives every random fault decision (drop/dup/delay coin flips).
	Seed int64 `json:"seed"`
	// Events is the fault schedule; order does not matter.
	Events []Event `json:"events"`
}

// Validate reports structural errors in the plan.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d: negative At %v", i, ev.At)
		}
		switch ev.Kind {
		case KindCrashWorker, KindCrashServer:
			if ev.Node < 0 {
				return fmt.Errorf("faults: event %d: negative node index", i)
			}
			if ev.RestartAfter < 0 {
				return fmt.Errorf("faults: event %d: negative RestartAfter", i)
			}
		case KindCrashScheduler:
			if ev.RestartAfter < 0 {
				return fmt.Errorf("faults: event %d: negative RestartAfter", i)
			}
		case KindPartition:
			if len(ev.A) == 0 || len(ev.B) == 0 {
				return fmt.Errorf("faults: event %d: partition needs both sides", i)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d: partition needs a positive Duration", i)
			}
		case KindDrop, KindDuplicate, KindDelay:
			if ev.Rate < 0 || ev.Rate > 1 {
				return fmt.Errorf("faults: event %d: rate %v outside [0,1]", i, ev.Rate)
			}
			if ev.Kind == KindDelay && ev.Delay <= 0 {
				return fmt.Errorf("faults: event %d: delay fault needs a positive Delay", i)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Crashes returns the plan's crash events sorted by time (for injectors).
func (p *Plan) Crashes() []Event {
	var out []Event
	for _, ev := range p.Events {
		if ev.Kind == KindCrashWorker || ev.Kind == KindCrashServer || ev.Kind == KindCrashScheduler {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// HasSchedulerCrash reports whether the plan targets the scheduler. Runners
// use this to decide whether to arm the worker-side scheduler failure
// detector and the scheduler's beacon (both off by default so fault-free and
// worker/server-only runs keep their exact event schedules).
func (p *Plan) HasSchedulerCrash() bool {
	for _, ev := range p.Events {
		if ev.Kind == KindCrashScheduler {
			return true
		}
	}
	return false
}

// CrashOnly reports whether the plan contains nothing but crash events (no
// partitions or message faults). Replicated runs require a crash-only plan:
// a dropped, delayed, or partitioned replication message would silently
// stall a backup behind the primary it is supposed to stand in for (see
// DESIGN.md, Replication).
func (p *Plan) CrashOnly() bool {
	for _, ev := range p.Events {
		switch ev.Kind {
		case KindCrashWorker, KindCrashServer, KindCrashScheduler:
		default:
			return false
		}
	}
	return true
}

// MarshalJSON round-trips through the standard encoder; ParseJSON is the
// inverse. Durations serialize as nanosecond integers.
func (p *Plan) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseJSON decodes and validates a plan.
func ParseJSON(data []byte) (*Plan, error) {
	var p Plan
	// Reject unknown fields: a misspelled "restart_after" silently turning
	// a crash-with-restart into a permanent crash is too easy otherwise.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// ChurnConfig parameterizes Generate.
type ChurnConfig struct {
	// Workers and Servers are the cluster shape (a run spec's churn block
	// takes them, and its ServerFraction, from cluster.Run).
	Workers int `json:"-"`
	Servers int `json:"-"`
	// Crashes is the number of crash events to schedule.
	Crashes int `json:"crashes"`
	// Horizon is the time span over which crashes are spread.
	Horizon time.Duration `json:"horizon"`
	// Downtime is the mean restart delay (uniform in [Downtime/2,
	// 3*Downtime/2)); zero leaves crashed nodes down.
	Downtime time.Duration `json:"downtime,omitempty"`
	// ServerFraction is the fraction of crashes that hit server shards
	// (default 0: workers only).
	ServerFraction float64 `json:"-"`
	// SchedulerCrashes is the number of additional scheduler crash/restart
	// events to schedule (default 0). They share the horizon and downtime
	// distribution with worker/server crashes.
	SchedulerCrashes int `json:"scheduler_crashes,omitempty"`
}

// Generate builds a deterministic churn plan: Crashes crash/restart events
// spread uniformly over the horizon, targets drawn from the seeded stream.
// The same seed and config always produce the identical plan.
func Generate(seed int64, cfg ChurnConfig) (*Plan, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("faults: churn needs at least 1 worker")
	}
	if cfg.Crashes > 0 && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: churn needs a positive horizon")
	}
	if cfg.ServerFraction < 0 || cfg.ServerFraction > 1 {
		return nil, fmt.Errorf("faults: ServerFraction outside [0,1]")
	}
	if cfg.ServerFraction > 0 && cfg.Servers < 1 {
		return nil, fmt.Errorf("faults: ServerFraction set with no servers")
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6661756c74)) // "fault"
	p := &Plan{Seed: seed}
	for i := 0; i < cfg.Crashes; i++ {
		at := time.Duration(rng.Int63n(int64(cfg.Horizon)))
		ev := Event{Kind: KindCrashWorker, At: at, Node: rng.Intn(cfg.Workers)}
		if rng.Float64() < cfg.ServerFraction {
			ev.Kind = KindCrashServer
			ev.Node = rng.Intn(cfg.Servers)
		}
		if cfg.Downtime > 0 {
			half := int64(cfg.Downtime) / 2
			ev.RestartAfter = time.Duration(half + rng.Int63n(2*half))
		}
		p.Events = append(p.Events, ev)
	}
	if cfg.SchedulerCrashes > 0 && cfg.Horizon <= 0 {
		return nil, fmt.Errorf("faults: churn needs a positive horizon")
	}
	for i := 0; i < cfg.SchedulerCrashes; i++ {
		ev := Event{Kind: KindCrashScheduler, At: time.Duration(rng.Int63n(int64(cfg.Horizon)))}
		if cfg.Downtime > 0 {
			half := int64(cfg.Downtime) / 2
			ev.RestartAfter = time.Duration(half + rng.Int63n(2*half))
		}
		p.Events = append(p.Events, ev)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}
