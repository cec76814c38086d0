// Package scheme describes the synchronization schemes the paper studies and
// compares: ASP (MXNet's default asynchronous parallelism, the paper's
// "Original"), BSP, SSP, naïve waiting (Sec. III), and SpecSync layered on
// top in either Cherrypick (fixed hyperparameters) or Adaptive (Algorithm 1)
// mode.
//
// Every barrier discipline is one clock gate (Gate): a staleness bound and a
// quorum. BSP is (0, 1), SSP is (s, 1), ASP is (∞, ·), PSP is (0, β) and pSSP
// is (s, β). A Policy moves the gate at epoch boundaries: Sync-Switch
// releases it on a schedule, ABS re-derives the bound from the push-arrival
// spread, and the meta policy loosens it while a straggler persists.
package scheme

import (
	"fmt"
	"strings"
	"time"
)

// Base is the underlying synchronization model; with Staleness and Quorum
// it sets the run's initial gate.
type Base int

// Base schemes.
const (
	// ASP is asynchronous parallelism: workers never wait.
	ASP Base = iota + 1
	// BSP is bulk-synchronous parallelism: a barrier after every iteration.
	BSP
	// SSP is stale-synchronous parallelism: a worker may run ahead of the
	// slowest worker by at most Staleness iterations.
	SSP
)

// String returns the scheme's conventional name.
func (b Base) String() string {
	switch b {
	case ASP:
		return "ASP"
	case BSP:
		return "BSP"
	case SSP:
		return "SSP"
	default:
		return fmt.Sprintf("Base(%d)", int(b))
	}
}

// MarshalText writes the base's name, so a spec reads "base": "SSP".
func (b Base) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText parses a base name (case-insensitive).
func (b *Base) UnmarshalText(text []byte) error {
	return parseName(text, "base", []Base{ASP, BSP, SSP}, b)
}

// Spec selects the speculation layer.
type Spec int

// Speculation modes.
const (
	// SpecOff disables speculation (plain base scheme).
	SpecOff Spec = iota
	// SpecFixed uses operator-provided ABORT_TIME / ABORT_RATE
	// (SpecSync-Cherrypick in the paper).
	SpecFixed
	// SpecAdaptive retunes both hyperparameters every epoch with the
	// paper's Algorithm 1 (SpecSync-Adaptive).
	SpecAdaptive
)

// String returns the mode's conventional name.
func (s Spec) String() string {
	switch s {
	case SpecOff:
		return "Off"
	case SpecFixed:
		return "Cherrypick"
	case SpecAdaptive:
		return "Adaptive"
	default:
		return fmt.Sprintf("Spec(%d)", int(s))
	}
}

// MarshalText writes the mode's name, so a spec reads "spec": "Adaptive".
func (s Spec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a mode name (case-insensitive).
func (s *Spec) UnmarshalText(text []byte) error {
	return parseName(text, "spec mode", []Spec{SpecOff, SpecFixed, SpecAdaptive}, s)
}

// Policy names the rule that moves the gate at epoch boundaries. The
// scheduler executes every move as a live switch (SchemeSwitch).
type Policy int

// Gate policies.
const (
	// PolicyNone keeps the initial gate for the whole run.
	PolicyNone Policy = iota
	// PolicySyncSwitch releases the gate to ASP at epoch SwitchAt (the
	// Sync-Switch hybrid: tight synchronization early, when gradients are
	// large and noisy, free-running later).
	PolicySyncSwitch
	// PolicyABS is adaptive bounded staleness: the bound is re-derived every
	// epoch from the observed push-arrival spread, so a homogeneous fleet
	// runs near-BSP and a straggling fleet loosens up.
	PolicyABS
	// PolicyMeta loosens the gate to a fixed bound while the straggler
	// detector holds a sustained straggler, and restores the initial gate
	// once the fleet recovers, with hysteresis.
	PolicyMeta
)

// How far the policies move the gate. ABS clamps its re-derived bound to
// [ABSMinBound, ABSMaxBound]; the meta policy loosens the bound by
// MetaBound.
const (
	ABSMinBound = 1
	ABSMaxBound = 8
	MetaBound   = 3
)

// String returns the policy's spec name.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicySyncSwitch:
		return "sync-switch"
	case PolicyABS:
		return "abs"
	case PolicyMeta:
		return "meta"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MarshalText writes the policy's name, so a spec reads "policy": "abs".
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name (case-insensitive).
func (p *Policy) UnmarshalText(text []byte) error {
	return parseName(text, "policy", []Policy{PolicyNone, PolicySyncSwitch, PolicyABS, PolicyMeta}, p)
}

// parseName sets *out to the value in values whose String matches text.
func parseName[T fmt.Stringer](text []byte, what string, values []T, out *T) error {
	names := make([]string, len(values))
	for i, v := range values {
		if strings.EqualFold(string(text), v.String()) {
			*out = v
			return nil
		}
		names[i] = v.String()
	}
	return fmt.Errorf("scheme: unknown scheme %s %q (want one of %s)", what, text, strings.Join(names, ", "))
}

// Unbounded is the Gate bound of ASP: no iteration ever waits.
const Unbounded = -1

// Gate is the one synchronization control every worker and the scheduler
// agree on. Each worker's clock is its completed-iteration count; the
// released clock R is the ⌈Quorum·alive⌉-th highest live clock and never
// regresses. A worker may start iteration k once k <= R + Bound.
type Gate struct {
	// Bound is the staleness bound s, or Unbounded.
	Bound int
	// Quorum is the fraction β of live workers whose clocks R must cover,
	// in (0, 1].
	Quorum float64
}

// Unbounded reports whether the gate never holds a worker (ASP).
func (g Gate) Unbounded() bool { return g.Bound < 0 }

// Base is the classic model the gate's bound corresponds to.
func (g Gate) Base() Base {
	switch {
	case g.Bound < 0:
		return ASP
	case g.Bound == 0:
		return BSP
	default:
		return SSP
	}
}

// String names the gate, e.g. "BSP", "SSP(s=3)", "PSP(β=0.75)",
// "pSSP(s=3,β=0.75)".
func (g Gate) String() string {
	switch {
	case g.Bound < 0:
		return "ASP"
	case g.Quorum < 1 && g.Bound == 0:
		return fmt.Sprintf("PSP(β=%.2f)", g.Quorum)
	case g.Quorum < 1:
		return fmt.Sprintf("pSSP(s=%d,β=%.2f)", g.Bound, g.Quorum)
	case g.Bound == 0:
		return "BSP"
	default:
		return fmt.Sprintf("SSP(s=%d)", g.Bound)
	}
}

// Loosened is the gate the meta policy moves to while a straggler persists:
// the bound raised by MetaBound, the quorum kept.
func (g Gate) Loosened() Gate { return Gate{Bound: g.Bound + MetaBound, Quorum: g.Quorum} }

// Config fully describes a synchronization scheme.
type Config struct {
	// Base is the underlying model. Required.
	Base Base `json:"base,omitempty"`
	// Staleness is the SSP bound (ignored otherwise).
	Staleness int `json:"staleness,omitempty"`
	// Quorum is the fraction of live workers a BSP/SSP release waits for,
	// in (0, 1]; zero means 1. BSP with a quorum below 1 is PSP, SSP with
	// one is pSSP.
	Quorum float64 `json:"quorum,omitempty"`
	// NaiveWait, when positive, delays every pull request by this amount
	// (the naïve-waiting strategy of paper Sec. III-B).
	NaiveWait time.Duration `json:"naive_wait,omitempty"`
	// Spec selects the speculation layer. Speculation arms a window only
	// while the active bound is positive (nothing is stale behind a barrier),
	// so it needs an initial bound above 0 or a policy that moves it there.
	Spec Spec `json:"spec,omitempty"`
	// AbortTime is the fixed speculation window for SpecFixed.
	AbortTime time.Duration `json:"abort_time,omitempty"`
	// AbortRate is the fixed push-rate threshold for SpecFixed, as a
	// fraction of the worker count (paper: cnt >= m * ABORT_RATE).
	AbortRate float64 `json:"abort_rate,omitempty"`
	// Decentralized switches SpecFixed to the broadcast design the paper
	// rejects (Sec. V-A): every worker announces each push to all peers and
	// runs its own speculation check, with no scheduler involvement. It
	// exists to measure the all-to-all control-traffic blowup.
	Decentralized bool `json:"decentralized,omitempty"`
	// Policy moves the gate at epoch boundaries; it needs a bounded initial
	// gate and the centralized scheduler.
	Policy Policy `json:"policy,omitempty"`
	// SwitchAt is the epoch at which PolicySyncSwitch releases the gate to
	// ASP. Required (>= 1) for that policy.
	SwitchAt int `json:"switch_at,omitempty"`
}

// Gate is the gate the run starts under.
func (c Config) Gate() Gate {
	g := Gate{Bound: Unbounded, Quorum: 1}
	switch c.Base {
	case BSP:
		g.Bound = 0
	case SSP:
		g.Bound = c.Staleness
	default:
		return g
	}
	if c.Quorum > 0 {
		g.Quorum = c.Quorum
	}
	return g
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Base {
	case ASP, BSP, SSP:
	default:
		return fmt.Errorf("scheme: unknown base %d", c.Base)
	}
	if c.Base == SSP && c.Staleness < 0 {
		return fmt.Errorf("scheme: negative SSP staleness %d", c.Staleness)
	}
	if c.Quorum < 0 || c.Quorum > 1 {
		return fmt.Errorf("scheme: quorum %v outside (0,1]", c.Quorum)
	}
	if c.Quorum != 0 && c.Base == ASP {
		return fmt.Errorf("scheme: a quorum needs a bounded base (BSP or SSP)")
	}
	if c.NaiveWait < 0 {
		return fmt.Errorf("scheme: negative naive wait %v", c.NaiveWait)
	}
	switch c.Policy {
	case PolicyNone, PolicyABS, PolicyMeta:
		if c.SwitchAt != 0 {
			return fmt.Errorf("scheme: switch_at is a sync-switch parameter (policy is %s)", c.Policy)
		}
	case PolicySyncSwitch:
		if c.SwitchAt < 1 {
			return fmt.Errorf("scheme: sync-switch requires switch_at >= 1 (the epoch that releases the gate), got %d", c.SwitchAt)
		}
	default:
		return fmt.Errorf("scheme: unknown policy %d", int(c.Policy))
	}
	if c.Policy != PolicyNone {
		if c.Base == ASP {
			return fmt.Errorf("scheme: policy %s moves a bounded gate; base must be BSP or SSP", c.Policy)
		}
		if c.Decentralized {
			return fmt.Errorf("scheme: policy %s requires the centralized scheduler (Decentralized unsupported)", c.Policy)
		}
	}
	if c.Spec != SpecOff && c.Policy == PolicyNone && c.Gate().Bound == 0 {
		return fmt.Errorf("scheme: speculation never arms under a bound of 0 (%s); use a positive bound or a policy", c.Gate())
	}
	switch c.Spec {
	case SpecOff:
		if c.Decentralized {
			return fmt.Errorf("scheme: Decentralized requires SpecFixed")
		}
	case SpecFixed:
		if c.AbortTime <= 0 {
			return fmt.Errorf("scheme: SpecFixed requires positive AbortTime")
		}
		if c.AbortRate < 0 || c.AbortRate > 1 {
			return fmt.Errorf("scheme: AbortRate %v outside [0,1]", c.AbortRate)
		}
	case SpecAdaptive:
		if c.Decentralized {
			// Decentralized adaptive tuning would need every worker to run
			// Algorithm 1 on its own copy of the push history; the paper's
			// centralized design exists precisely to avoid that redundancy.
			return fmt.Errorf("scheme: Decentralized supports only SpecFixed")
		}
	default:
		return fmt.Errorf("scheme: unknown spec mode %d", c.Spec)
	}
	return nil
}

// Name returns a human-readable scheme name matching the paper's
// terminology ("Original" is stock asynchronous MXNet).
func (c Config) Name() string {
	base := c.Gate().String()
	if c.Base == SSP && c.Gate().Quorum == 1 {
		base = fmt.Sprintf("SSP(s=%d)", c.Staleness)
	}
	switch c.Policy {
	case PolicySyncSwitch:
		base = fmt.Sprintf("Sync-Switch(%s→ASP@e%d)", base, c.SwitchAt)
	case PolicyABS:
		base = fmt.Sprintf("ABS(%s, s=%d..%d)", base, ABSMinBound, ABSMaxBound)
	case PolicyMeta:
		base = fmt.Sprintf("Meta(%s↔%s)", base, c.Gate().Loosened())
	}
	if c.NaiveWait > 0 {
		base = fmt.Sprintf("%s+NaiveWait(%v)", base, c.NaiveWait)
	}
	switch c.Spec {
	case SpecFixed:
		if c.Decentralized {
			return fmt.Sprintf("SpecSync-Broadcast(%s)", base)
		}
		return fmt.Sprintf("SpecSync-Cherrypick(%s)", base)
	case SpecAdaptive:
		return fmt.Sprintf("SpecSync-Adaptive(%s)", base)
	default:
		if c.Base == ASP && c.NaiveWait == 0 {
			return "Original"
		}
		return base
	}
}
