// Package scheme enumerates the synchronization schemes the paper studies
// and compares: ASP (MXNet's default asynchronous parallelism, the paper's
// "Original"), BSP, SSP, naïve waiting (Sec. III), and SpecSync layered on
// top of ASP or SSP in either Cherrypick (fixed hyperparameters) or Adaptive
// (Algorithm 1) mode.
package scheme

import (
	"fmt"
	"strings"
	"time"
)

// Base is the underlying synchronization model.
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

// Variant selects one of the composite schemes layered on top of the base
// models. Unlike Base/Spec combinations, variants change (or sample) their
// effective synchronization discipline at runtime: the scheduler re-targets
// workers mid-run through SchemeSwitch control messages.
type Variant int

// Scheme variants.
const (
	// VariantNone is a plain Base+Spec scheme (everything that predates the
	// scheme zoo).
	VariantNone Variant = iota
	// VariantSyncSwitch runs BSP until a scheduled epoch, then switches the
	// whole fleet to ASP (the Sync-Switch hybrid: tight synchronization
	// early, when gradients are large and noisy, free-running later).
	VariantSyncSwitch
	// VariantABS is adaptive bounded staleness: SSP whose bound is
	// re-derived every epoch from the observed push-arrival spread, so a
	// homogeneous fleet runs near-BSP and a straggling fleet loosens up.
	VariantABS
	// VariantPSP is probabilistic synchronous parallel: each barrier
	// releases once a β-fraction of the live workers has arrived, so the
	// sampled quorum — whichever workers finish first — sets the pace and
	// stragglers never stall the round.
	VariantPSP
)

// String returns the variant's conventional name.
func (v Variant) String() string {
	switch v {
	case VariantNone:
		return "None"
	case VariantSyncSwitch:
		return "Sync-Switch"
	case VariantABS:
		return "ABS"
	case VariantPSP:
		return "PSP"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// MarshalText writes the variant's name, so a spec reads "variant": "PSP".
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a variant name (case-insensitive).
func (v *Variant) UnmarshalText(text []byte) error {
	return parseName(text, "variant", []Variant{VariantNone, VariantSyncSwitch, VariantABS, VariantPSP}, v)
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

// Default ABS bound clamp, used when the config leaves ABSMin/ABSMax zero.
const (
	DefaultABSMin = 1
	DefaultABSMax = 8
)

// Config fully describes a synchronization scheme.
type Config struct {
	// Base is the underlying model. Required.
	Base Base `json:"base,omitempty"`
	// Staleness is the SSP bound (ignored otherwise).
	Staleness int `json:"staleness,omitempty"`
	// NaiveWait, when positive, delays every pull request by this amount
	// (the naïve-waiting strategy of paper Sec. III-B).
	NaiveWait time.Duration `json:"naive_wait,omitempty"`
	// Spec selects the speculation layer. Speculation is incompatible with
	// BSP (there is nothing to speculate about behind a barrier).
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

	// Variant selects a composite scheme. When set, Base must be zero (the
	// variant determines its own effective base) and Decentralized must be
	// false — variants rely on the centralized scheduler to issue
	// SchemeSwitch retargets.
	Variant Variant `json:"variant,omitempty"`
	// SwitchAt is the epoch at which VariantSyncSwitch hands the fleet from
	// BSP to ASP. Required (>= 1) for that variant.
	SwitchAt int `json:"switch_at,omitempty"`
	// PSPBeta is the VariantPSP barrier quorum as a fraction of live
	// workers, in (0, 1); β = 1 would be plain BSP.
	PSPBeta float64 `json:"psp_beta,omitempty"`
	// ABSMin / ABSMax clamp the VariantABS staleness bound. Zero values
	// default to DefaultABSMin / DefaultABSMax.
	ABSMin int `json:"-"`
	ABSMax int `json:"-"`
}

// Runtime is the dynamically-switchable portion of a scheme: what the
// scheduler and every worker must agree on at any instant. Plain schemes
// keep one Runtime for the whole run; variants and the meta-scheme rewrite
// it through SchemeSwitch messages.
type Runtime struct {
	// Base is the active synchronization model.
	Base Base
	// Staleness is the active SSP bound (meaningful only when Base is SSP).
	Staleness int
	// Beta is the barrier quorum fraction (meaningful only when Base is
	// BSP); 0 means a full barrier.
	Beta float64
}

// String names the active discipline, e.g. "BSP", "SSP(s=3)", "PSP(β=0.70)".
func (r Runtime) String() string {
	switch r.Base {
	case SSP:
		return fmt.Sprintf("SSP(s=%d)", r.Staleness)
	case BSP:
		if r.Beta > 0 && r.Beta < 1 {
			return fmt.Sprintf("PSP(β=%.2f)", r.Beta)
		}
		return "BSP"
	default:
		return r.Base.String()
	}
}

// EffectiveBase is the base model the scheme starts the run under.
func (c Config) EffectiveBase() Base {
	switch c.Variant {
	case VariantSyncSwitch, VariantPSP:
		return BSP
	case VariantABS:
		return SSP
	default:
		return c.Base
	}
}

// ABSBounds returns the ABS staleness clamp with defaults applied.
func (c Config) ABSBounds() (min, max int) {
	min, max = c.ABSMin, c.ABSMax
	if min <= 0 {
		min = DefaultABSMin
	}
	if max <= 0 {
		max = DefaultABSMax
	}
	return min, max
}

// InitialRuntime is the Runtime the fleet boots under. ABS starts at its
// tightest bound (near-BSP) and loosens as spread is observed.
func (c Config) InitialRuntime() Runtime {
	rt := Runtime{Base: c.EffectiveBase(), Staleness: c.Staleness}
	switch c.Variant {
	case VariantABS:
		rt.Staleness, _ = c.ABSBounds()
	case VariantPSP:
		rt.Beta = c.PSPBeta
	}
	return rt
}

// DynamicBase reports whether the scheme rewrites its Runtime mid-run (and
// therefore needs worker-reported work spans and SchemeSwitch plumbing).
func (c Config) DynamicBase() bool {
	return c.Variant == VariantSyncSwitch || c.Variant == VariantABS
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Variant {
	case VariantNone:
	case VariantSyncSwitch, VariantABS, VariantPSP:
		if c.Base != 0 {
			return fmt.Errorf("scheme: variant %s determines its own base; leave Base unset (got %s)", c.Variant, c.Base)
		}
		if c.Decentralized {
			return fmt.Errorf("scheme: variant %s requires the centralized scheduler (Decentralized unsupported)", c.Variant)
		}
		if c.NaiveWait != 0 {
			return fmt.Errorf("scheme: variant %s is incompatible with NaiveWait", c.Variant)
		}
		if c.SwitchAt != 0 && c.Variant != VariantSyncSwitch {
			return fmt.Errorf("scheme: SwitchAt is a Sync-Switch parameter (variant is %s)", c.Variant)
		}
		if c.PSPBeta != 0 && c.Variant != VariantPSP {
			return fmt.Errorf("scheme: PSPBeta is a PSP parameter (variant is %s)", c.Variant)
		}
		switch c.Variant {
		case VariantSyncSwitch:
			if c.Spec != SpecOff {
				return fmt.Errorf("scheme: speculation is incompatible with Sync-Switch (its BSP phase has nothing to speculate about)")
			}
			if c.SwitchAt < 1 {
				return fmt.Errorf("scheme: Sync-Switch requires SwitchAt >= 1 (the epoch that triggers the BSP→ASP handover), got %d", c.SwitchAt)
			}
		case VariantABS:
			min, max := c.ABSBounds()
			if min > max {
				return fmt.Errorf("scheme: ABS bound clamp inverted (min %d > max %d)", min, max)
			}
			if c.Spec == SpecFixed && (c.AbortTime <= 0 || c.AbortRate < 0 || c.AbortRate > 1) {
				return fmt.Errorf("scheme: ABS with SpecFixed requires positive AbortTime and AbortRate in [0,1]")
			}
		case VariantPSP:
			if c.Spec != SpecOff {
				return fmt.Errorf("scheme: speculation is incompatible with PSP (BSP-family barriers have nothing to speculate about)")
			}
			if c.PSPBeta <= 0 || c.PSPBeta >= 1 {
				return fmt.Errorf("scheme: PSP requires PSPBeta in (0,1), got %v (β=1 is plain BSP)", c.PSPBeta)
			}
		}
		return nil
	default:
		return fmt.Errorf("scheme: unknown variant %d", int(c.Variant))
	}
	if c.SwitchAt != 0 || c.PSPBeta != 0 || c.ABSMin != 0 || c.ABSMax != 0 {
		return fmt.Errorf("scheme: SwitchAt/PSPBeta/ABSMin/ABSMax are variant parameters; set Variant")
	}
	switch c.Base {
	case ASP, BSP, SSP:
	default:
		return fmt.Errorf("scheme: unknown base %d", c.Base)
	}
	if c.Base == SSP && c.Staleness < 0 {
		return fmt.Errorf("scheme: negative SSP staleness %d", c.Staleness)
	}
	if c.NaiveWait < 0 {
		return fmt.Errorf("scheme: negative naive wait %v", c.NaiveWait)
	}
	switch c.Spec {
	case SpecOff:
		if c.Decentralized {
			return fmt.Errorf("scheme: Decentralized requires SpecFixed")
		}
	case SpecFixed:
		if c.Base == BSP {
			return fmt.Errorf("scheme: speculation is incompatible with BSP")
		}
		if c.AbortTime <= 0 {
			return fmt.Errorf("scheme: SpecFixed requires positive AbortTime")
		}
		if c.AbortRate < 0 || c.AbortRate > 1 {
			return fmt.Errorf("scheme: AbortRate %v outside [0,1]", c.AbortRate)
		}
	case SpecAdaptive:
		if c.Base == BSP {
			return fmt.Errorf("scheme: speculation is incompatible with BSP")
		}
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
	switch c.Variant {
	case VariantSyncSwitch:
		return fmt.Sprintf("Sync-Switch(BSP→ASP@e%d)", c.SwitchAt)
	case VariantABS:
		min, max := c.ABSBounds()
		base := fmt.Sprintf("ABS(s=%d..%d)", min, max)
		switch c.Spec {
		case SpecFixed:
			return fmt.Sprintf("SpecSync-Cherrypick(%s)", base)
		case SpecAdaptive:
			return fmt.Sprintf("SpecSync-Adaptive(%s)", base)
		}
		return base
	case VariantPSP:
		return fmt.Sprintf("PSP(β=%.2f)", c.PSPBeta)
	}
	base := c.Base.String()
	if c.Base == SSP {
		base = fmt.Sprintf("SSP(s=%d)", c.Staleness)
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
