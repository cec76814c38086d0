// Package switcher implements the meta-scheme: a policy that watches the
// straggler telemetry internal/obs collects and rewrites the fleet's active
// synchronization discipline live. The default policy runs BSP while the
// fleet is homogeneous — tight synchronization is free when nobody lags —
// and degrades to SSP with a configurable bound once sustained stragglers
// appear, so the healthy majority stops paying the barrier tax. When the
// stragglers recover it switches back.
//
// The policy is a pure, deterministic state machine: the scheduler calls
// Evaluate at every epoch boundary with the current telemetry, and the
// policy answers with at most one switch decision. Hysteresis is built in
// three times over — a condition must hold for HoldEpochs consecutive
// evaluations before it triggers, after any switch the policy refuses to
// move again until MinDwell virtual time has passed, and the recover path
// uses a score threshold (RecoverScore) strictly tighter than the detector's
// flag threshold — so a borderline fleet never flaps between disciplines.
// The tighter recover band exists because mitigation masks its own signal:
// under SSP a genuine straggler no longer contends with the healthy majority
// at the servers, and its slowdown score settles just below the flag
// threshold; recovering on the detector's bare clear would re-expose the
// straggler under BSP and oscillate.
package switcher

import (
	"fmt"
	"time"

	"specsync/internal/scheme"
)

// Config tunes the meta-scheme policy. A run spec enables the policy with
// its defaults ("meta_scheme": {}); the tuning fields stay Go-only.
type Config struct {
	// DegradeSustained is the number of sustained stragglers that triggers
	// the BSP→SSP degrade. Default 1.
	DegradeSustained int `json:"-"`
	// HoldEpochs is how many consecutive epoch-boundary evaluations a
	// condition (degrade or recover) must hold before the policy acts.
	// Default 2.
	HoldEpochs int `json:"-"`
	// MinDwell is the minimum virtual time between two switches. Default
	// 10s.
	MinDwell time.Duration `json:"-"`
	// Staleness is the SSP bound used while degraded. Default 3.
	Staleness int `json:"-"`
	// RecoverScore is the worst per-worker slowdown score the fleet may
	// carry and still count as recovered. It must sit strictly below the
	// detector's flag threshold (1.5 by default) to form a dead band.
	// Default 1.25.
	RecoverScore float64 `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.DegradeSustained <= 0 {
		c.DegradeSustained = 1
	}
	if c.HoldEpochs <= 0 {
		c.HoldEpochs = 2
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 10 * time.Second
	}
	if c.Staleness <= 0 {
		c.Staleness = 3
	}
	if c.RecoverScore <= 0 {
		c.RecoverScore = 1.25
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DegradeSustained < 0 || c.HoldEpochs < 0 || c.MinDwell < 0 || c.Staleness < 0 {
		return fmt.Errorf("switcher: negative policy parameter: %+v", c)
	}
	if c.RecoverScore < 0 || (c.RecoverScore > 0 && c.RecoverScore < 1) {
		return fmt.Errorf("switcher: RecoverScore %.2f must be >= 1 (1.0 = median pace)", c.RecoverScore)
	}
	return nil
}

// Telemetry is the straggler signal the scheduler feeds the policy at each
// epoch boundary.
type Telemetry struct {
	// Sustained is the number of workers currently flagged as sustained
	// stragglers.
	Sustained int
	// Flagged is the number of workers flagged at any level (transient or
	// sustained).
	Flagged int
	// MedianScore is the fleet's median slowdown score (1.0 = homogeneous).
	MedianScore float64
	// MaxScore is the worst per-worker slowdown score. Zero when no worker
	// has been scored yet.
	MaxScore float64
}

// Decision is a switch the policy wants executed.
type Decision struct {
	Target scheme.Runtime
	Reason string
}

// Policy is the meta-scheme state machine. Not safe for concurrent use; the
// scheduler owns it and calls Evaluate from its own execution context.
type Policy struct {
	cfg      Config
	degraded bool
	streak   int // consecutive evaluations the pending condition has held
	lastAt   time.Time
	switched bool // at least one switch has happened (gates MinDwell)
	switches int64
}

// New builds a policy. Zero config fields take the documented defaults.
func New(cfg Config) *Policy {
	return &Policy{cfg: cfg.withDefaults()}
}

// Degraded reports whether the policy currently holds the fleet in SSP.
func (p *Policy) Degraded() bool { return p.degraded }

// Switches returns how many switches the policy has issued.
func (p *Policy) Switches() int64 { return p.switches }

// Evaluate consumes one epoch-boundary telemetry sample and returns a
// switch decision if — and only if — the hysteresis conditions are met.
func (p *Policy) Evaluate(now time.Time, t Telemetry) (Decision, bool) {
	// Degrading needs a sustained flag; recovering needs the fleet
	// convincingly homogeneous — no flags at any level and the worst score
	// inside the RecoverScore dead band (strictly tighter than the flag
	// threshold, see the package comment).
	want := p.degraded
	if !p.degraded {
		want = t.Sustained >= p.cfg.DegradeSustained
	} else if t.Sustained == 0 && t.Flagged == 0 && t.MaxScore < p.cfg.RecoverScore {
		want = false
	}
	if want == p.degraded {
		p.streak = 0
		return Decision{}, false
	}
	p.streak++
	if p.streak < p.cfg.HoldEpochs {
		return Decision{}, false
	}
	if p.switched && now.Sub(p.lastAt) < p.cfg.MinDwell {
		// Dwell not served yet; keep the streak so the switch fires as soon
		// as the dwell expires (if the condition still holds).
		p.streak--
		return Decision{}, false
	}
	p.degraded = want
	p.streak = 0
	p.lastAt = now
	p.switched = true
	p.switches++
	if want {
		return Decision{
			Target: scheme.Runtime{Base: scheme.SSP, Staleness: p.cfg.Staleness},
			Reason: fmt.Sprintf("meta: %d sustained straggler(s) → SSP(s=%d)", t.Sustained, p.cfg.Staleness),
		}, true
	}
	return Decision{
		Target: scheme.Runtime{Base: scheme.BSP},
		Reason: "meta: stragglers recovered → BSP",
	}, true
}
