// Package stragglers implements declarative straggler scenarios and the
// mitigation knobs measured against them: seedable plans of compute pauses,
// sustained degradation, link congestion, and correlated rack-level
// slowdowns — the real-world slowdown modes the Wong straggler study
// catalogs and the lognormal compute-jitter knob cannot express.
//
// A Plan is pure data (JSON-serializable). It compiles into two deterministic
// artifacts: per-worker compute-speed scripts (worker.SpeedWindow lists,
// consumed identically by the simulator and the live runtime) and a link
// penalty function (a pure multiplier on per-link transfer time, installed
// into the DES network model). Neither draws randomness, so an empty plan
// leaves runs byte-identical and a non-empty plan is bit-for-bit
// reproducible.
//
// The package also names the two mitigations the scheduler can deploy against
// an active profile — backup-worker task cloning and straggler-triggered
// rebalancing — and scores the straggler detector against the plan's
// ground truth (which workers were actually slowed).
package stragglers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"specsync/internal/node"
	"specsync/internal/worker"
)

// Kind enumerates the straggler profile types.
type Kind string

const (
	// KindPause freezes worker Worker's compute for Duration starting at At
	// (a transient GC / disk / preemption stall). Iterations that would
	// begin inside the window start when it closes.
	KindPause Kind = "pause"
	// KindDegrade runs worker Worker at Speed (relative, in (0,1)) from At
	// for Duration (zero Duration = rest of run) — sustained degradation
	// such as thermal throttling or a noisy neighbor.
	KindDegrade Kind = "degrade"
	// KindCongest multiplies the transfer time of every message to or from
	// worker Worker by 1/Speed during the window — a congested or
	// flapping link rather than a slow CPU.
	KindCongest Kind = "congest"
	// KindRack degrades every worker in Workers to Speed during the window —
	// a correlated rack- or switch-level slowdown.
	KindRack Kind = "rack"
)

// Event is one scheduled straggler episode.
type Event struct {
	// Kind selects the profile type.
	Kind Kind `json:"kind"`
	// At is the episode's offset from run start.
	At time.Duration `json:"at"`
	// Duration bounds the episode; zero means it never ends (not allowed
	// for pause, which must eventually release the worker).
	Duration time.Duration `json:"duration,omitempty"`
	// Worker is the target worker index (pause, degrade, congest).
	Worker int `json:"worker"`
	// Workers is the correlated group (rack).
	Workers []int `json:"workers,omitempty"`
	// Speed is the relative speed while the episode is active, in (0,1)
	// (degrade, congest, rack). A worker at Speed 0.5 takes twice as long.
	Speed float64 `json:"speed,omitempty"`
}

// window returns the episode's [from, until) window; until is zero for an
// open-ended episode.
func (ev Event) window() (from, until time.Duration) {
	if ev.Duration <= 0 {
		return ev.At, 0
	}
	return ev.At, ev.At + ev.Duration
}

// targets returns the worker indices the event slows.
func (ev Event) targets() []int {
	if ev.Kind == KindRack {
		return ev.Workers
	}
	return []int{ev.Worker}
}

// Plan is a deterministic straggler schedule.
type Plan struct {
	// Seed is reserved for seeded generators; the four profile kinds are
	// fully declarative and draw no randomness.
	Seed int64 `json:"seed"`
	// Events is the episode schedule; order does not matter.
	Events []Event `json:"events"`
}

// Empty reports whether the plan injects nothing (nil-equivalent: runs stay
// byte-identical to a plan-free run).
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Validate reports structural errors in the plan.
func (p *Plan) Validate() error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("stragglers: event %d: negative At %v", i, ev.At)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("stragglers: event %d: negative Duration %v", i, ev.Duration)
		}
		switch ev.Kind {
		case KindPause:
			if ev.Worker < 0 {
				return fmt.Errorf("stragglers: event %d: negative worker index", i)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("stragglers: event %d: pause needs a positive Duration", i)
			}
		case KindDegrade, KindCongest:
			if ev.Worker < 0 {
				return fmt.Errorf("stragglers: event %d: negative worker index", i)
			}
			if ev.Speed <= 0 || ev.Speed >= 1 {
				return fmt.Errorf("stragglers: event %d: speed %v outside (0,1)", i, ev.Speed)
			}
		case KindRack:
			if len(ev.Workers) == 0 {
				return fmt.Errorf("stragglers: event %d: rack needs a worker group", i)
			}
			for _, w := range ev.Workers {
				if w < 0 {
					return fmt.Errorf("stragglers: event %d: negative worker index in group", i)
				}
			}
			if ev.Speed <= 0 || ev.Speed >= 1 {
				return fmt.Errorf("stragglers: event %d: speed %v outside (0,1)", i, ev.Speed)
			}
		default:
			return fmt.Errorf("stragglers: event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// MaxWorker returns the highest worker index any event references, or -1 for
// an empty plan.
func (p *Plan) MaxWorker() int {
	max := -1
	if p == nil {
		return max
	}
	for _, ev := range p.Events {
		for _, w := range ev.targets() {
			if w > max {
				max = w
			}
		}
	}
	return max
}

// Targets returns the plan's ground truth: the sorted set of worker indices
// it slows (by any kind). The detector scorer compares this against the set
// of workers the straggler detector flagged.
func (p *Plan) Targets() []int {
	if p == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, ev := range p.Events {
		for _, w := range ev.targets() {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Ints(out)
	return out
}

// HasCongest reports whether the plan needs the network link-penalty hook.
func (p *Plan) HasCongest() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if ev.Kind == KindCongest {
			return true
		}
	}
	return false
}

// JSON serializes the plan; ParseJSON is the inverse. Durations serialize as
// nanosecond integers.
func (p *Plan) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// ParseJSON decodes and validates a plan, rejecting unknown fields (a
// misspelled "duration" silently turning a transient pause into a permanent
// one is too easy otherwise).
func ParseJSON(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("stragglers: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Scripts compiles the plan's compute episodes (pause, degrade, rack) into
// per-worker speed scripts for the given cluster size. Congest events
// contribute nothing here — they live in LinkPenalty. The returned slice has
// one (possibly nil) script per worker; an empty plan returns all-nil
// scripts.
func (p *Plan) Scripts(workers int) ([][]worker.SpeedWindow, error) {
	out := make([][]worker.SpeedWindow, workers)
	if p.Empty() {
		return out, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mw := p.MaxWorker(); mw >= workers {
		return nil, fmt.Errorf("stragglers: plan targets worker %d but the cluster has %d", mw, workers)
	}
	for _, ev := range p.Events {
		from, until := ev.window()
		var win worker.SpeedWindow
		switch ev.Kind {
		case KindPause:
			win = worker.SpeedWindow{From: from, Until: until, Pause: true}
		case KindDegrade, KindRack:
			win = worker.SpeedWindow{From: from, Until: until, Factor: 1 / ev.Speed}
		default: // congest: network-side only
			continue
		}
		for _, w := range ev.targets() {
			out[w] = append(out[w], win)
		}
	}
	return out, nil
}

// LinkPenalty compiles the plan's congest episodes into a pure transfer-time
// multiplier: messages to or from a congested worker during an active window
// take 1/Speed times as long on the wire. Returns nil when the plan has no
// congest events, so the network model's hot path stays untouched.
// Overlapping episodes on the same link compose multiplicatively.
func (p *Plan) LinkPenalty() func(from, to node.ID, elapsed time.Duration) float64 {
	if p.Empty() || !p.HasCongest() {
		return nil
	}
	type slow struct {
		id          node.ID
		from, until time.Duration
		mult        float64
	}
	var slows []slow
	for _, ev := range p.Events {
		if ev.Kind != KindCongest {
			continue
		}
		f, u := ev.window()
		slows = append(slows, slow{id: node.WorkerID(ev.Worker), from: f, until: u, mult: 1 / ev.Speed})
	}
	return func(from, to node.ID, elapsed time.Duration) float64 {
		mult := 1.0
		for _, s := range slows {
			if from != s.id && to != s.id {
				continue
			}
			if elapsed < s.from || (s.until > 0 && elapsed >= s.until) {
				continue
			}
			mult *= s.mult
		}
		return mult
	}
}
