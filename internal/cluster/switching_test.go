package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/trace"
	"specsync/internal/worker"
)

// metaSchemeRun stages the meta-scheme acceptance scenario: a homogeneous
// BSP fleet in which worker 3 suffers a scripted 3x compute slowdown from
// t=30s to t=100s, then recovers. The policy must switch BSP→SSP once the
// slowdown sustains, and back exactly once after recovery.
func metaSchemeRun(t *testing.T, seed int64) (*obs.Obs, *Result) {
	return metaSchemeRunSpec(t, seed, scheme.SpecOff)
}

func metaSchemeRunSpec(t *testing.T, seed int64, spec scheme.Spec) (*obs.Obs, *Result) {
	t.Helper()
	wl, err := NewTiny(4, seed)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	wl.TargetLoss = 0 // run the full MaxVirtual
	o := obs.New(obs.Options{})
	res, err := Run(Config{
		Workload:       wl,
		Scheme:         scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta, Spec: spec},
		Workers:        4,
		Seed:           seed,
		Obs:            o,
		DisableHiccups: true,
		Slowdowns: []worker.Slowdown{
			3: {Factor: 3, From: 30 * time.Second, Until: 100 * time.Second},
		},
		MaxVirtual: 3 * time.Minute,
		KeepTrace:  true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return o, res
}

// TestMetaSchemeHysteresis is the tentpole acceptance criterion: a sustained
// straggler triggers exactly one BSP→SSP switch, and recovery exactly one
// switch back — visible in the result counters, the trace, the flight
// recorder, the /clusterz snapshot, and the scheme-switch metric.
func TestMetaSchemeHysteresis(t *testing.T) {
	o, res := metaSchemeRun(t, 7)
	if res.SchemeSwitches != 2 {
		t.Fatalf("SchemeSwitches = %d, want exactly 2 (degrade + recover)", res.SchemeSwitches)
	}
	if res.FinalScheme != "BSP" {
		t.Errorf("FinalScheme = %q, want BSP after recovery", res.FinalScheme)
	}

	var switches []trace.Event
	for _, ev := range res.Trace.Events() {
		if ev.Kind == trace.KindSchemeSwitch {
			switches = append(switches, ev)
		}
	}
	if len(switches) != 2 {
		t.Fatalf("trace has %d scheme-switch events, want 2", len(switches))
	}
	if got := scheme.Base(switches[0].Value); got != scheme.SSP {
		t.Errorf("first switch targets %s, want SSP", got)
	}
	if got := scheme.Base(switches[1].Value); got != scheme.BSP {
		t.Errorf("second switch targets %s, want BSP", got)
	}
	if switches[0].Iter != 1 || switches[1].Iter != 2 {
		t.Errorf("scheme epochs = %d, %d, want 1, 2", switches[0].Iter, switches[1].Iter)
	}

	var flight []string
	for _, ev := range res.Flight.Events {
		if ev.Kind == "scheme-switch" {
			flight = append(flight, ev.Detail)
		}
	}
	if len(flight) != 2 {
		t.Fatalf("flight recorder has %d scheme-switch events, want 2: %v", len(flight), flight)
	}
	if !strings.Contains(flight[0], "sustained straggler") {
		t.Errorf("degrade reason %q does not name the sustained straggler", flight[0])
	}
	if !strings.Contains(flight[1], "recovered") {
		t.Errorf("recover reason %q does not mention recovery", flight[1])
	}

	snap, ok := o.ClusterSnapshot()
	if !ok {
		t.Fatal("no /clusterz snapshot after run")
	}
	if snap.Scheme != "BSP" {
		t.Errorf("/clusterz scheme = %q, want BSP", snap.Scheme)
	}
	if snap.SchemeEpoch != 2 || snap.SchemeSwitches != 2 {
		t.Errorf("/clusterz scheme_epoch=%d switches=%d, want 2 and 2", snap.SchemeEpoch, snap.SchemeSwitches)
	}
	if !strings.Contains(snap.LastSwitchReason, "recovered") || snap.LastSwitchAt.IsZero() {
		t.Errorf("/clusterz last switch = %q at %v, want a recovery reason with a timestamp",
			snap.LastSwitchReason, snap.LastSwitchAt)
	}
	if res.Obs.SchemeSwitches != 2 {
		t.Errorf("specsync_scheme_switches_total = %d, want 2", res.Obs.SchemeSwitches)
	}
}

// TestMetaSchemeReproducible asserts the determinism invariant for dynamic
// runs: two same-seed meta-scheme runs (switches and all) produce
// byte-identical traces.
func TestMetaSchemeReproducible(t *testing.T) {
	digest := func() string {
		_, res := metaSchemeRun(t, 7)
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
			t.Fatalf("serialize trace: %v", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	a, b := digest(), digest()
	if a != b {
		t.Fatalf("same-seed meta-scheme runs diverged: %s vs %s", a, b)
	}
}

// TestMetaSchemeSpeculatesOnlyWhenLoose: the meta policy composes with
// adaptive speculation. While the gate's bound is 0 no speculation window
// opens, so no ReSync goes out; once the policy loosens the gate, the
// scheduler speculates again.
func TestMetaSchemeSpeculatesOnlyWhenLoose(t *testing.T) {
	_, res := metaSchemeRunSpec(t, 7, scheme.SpecAdaptive)
	if res.SchemeSwitches == 0 {
		t.Fatal("the meta policy never loosened the gate")
	}
	bound0, loose := true, 0
	for _, ev := range res.Trace.Events() {
		switch ev.Kind {
		case trace.KindSchemeSwitch:
			bound0 = scheme.Base(ev.Value) == scheme.BSP
		case trace.KindReSync:
			if bound0 {
				t.Fatalf("re-sync for worker %d at %v while the bound is 0", ev.Worker, ev.At)
			}
			loose++
		}
	}
	if loose == 0 {
		t.Error("no re-sync while the gate was loose: speculation never resumed")
	}
}

// TestMetaSchemeHoldsUnderPersistentStraggler pins the anti-flap dead band:
// once degraded to SSP, a persistently slow worker no longer contends with
// the healthy majority at the servers and its slowdown score settles just
// under the detector's flag threshold. Recovering on that bare clear would
// re-expose it under BSP and oscillate; the policy's RecoverScore band must
// keep the fleet in SSP — exactly one switch, ever.
func TestMetaSchemeHoldsUnderPersistentStraggler(t *testing.T) {
	wl, err := NewMF(SizeSmall, 6, 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	res, err := Run(Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta},
		Workers:    6,
		Seed:       1,
		Speeds:     []float64{1, 1, 1, 1, 1, 0.55},
		MaxVirtual: 20 * time.Minute,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.SchemeSwitches != 1 {
		t.Fatalf("SchemeSwitches = %d, want exactly 1 (degrade, then hold)", res.SchemeSwitches)
	}
	if res.FinalScheme != "SSP(s=3)" {
		t.Errorf("FinalScheme = %q, want SSP(s=3) held for the straggler's lifetime", res.FinalScheme)
	}
}

// TestVariantRuns smoke-tests each scheme-zoo variant — a gate policy or a
// quorum — end to end under the DES and checks the gate it ends the run
// under.
func TestVariantRuns(t *testing.T) {
	hetero := []float64{1, 1, 1, 0.55}
	cases := []struct {
		name        string
		sc          scheme.Config
		speeds      []float64
		wantFinal   string
		minSwitches int64
	}{
		// Sync-Switch must hand over to ASP exactly once at the scheduled epoch.
		{"sync-switch", scheme.Config{Base: scheme.BSP, Policy: scheme.PolicySyncSwitch, SwitchAt: 5}, nil, "ASP", 1},
		// A homogeneous ABS fleet stays at the minimum bound (no switches
		// guaranteed; the bound may never move).
		{"abs-homogeneous", scheme.Config{Base: scheme.SSP, Staleness: 1, Policy: scheme.PolicyABS}, nil, "SSP(s=1)", 0},
		// A 0.55x straggler should loosen the ABS bound above the minimum.
		{"abs-hetero", scheme.Config{Base: scheme.SSP, Staleness: 1, Policy: scheme.PolicyABS}, hetero, "", 1},
		// PSP is a static gate: β is its quorum, no switches ever.
		{"psp", scheme.Config{Base: scheme.BSP, Quorum: 0.75}, hetero, "PSP(β=0.75)", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := NewTiny(4, 7)
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			wl.TargetLoss = 0
			res, err := Run(Config{
				Workload:       wl,
				Scheme:         tc.sc,
				Workers:        4,
				Seed:           7,
				Speeds:         tc.speeds,
				DisableHiccups: true,
				MaxVirtual:     90 * time.Second,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.TotalIters == 0 {
				t.Fatal("no iterations completed")
			}
			if tc.wantFinal != "" && res.FinalScheme != tc.wantFinal {
				t.Errorf("FinalScheme = %q, want %q", res.FinalScheme, tc.wantFinal)
			}
			if res.SchemeSwitches < tc.minSwitches {
				t.Errorf("SchemeSwitches = %d, want >= %d", res.SchemeSwitches, tc.minSwitches)
			}
			if tc.name == "sync-switch" && res.SchemeSwitches != 1 {
				t.Errorf("Sync-Switch issued %d switches, want exactly 1", res.SchemeSwitches)
			}
			if tc.name == "abs-hetero" && !strings.HasPrefix(res.FinalScheme, "SSP(s=") {
				t.Errorf("ABS ended under %q, want an SSP bound", res.FinalScheme)
			}
		})
	}
}

// TestMetaSchemeConfigRejections mirrors the CLI fail-fast checks at the
// cluster layer: impossible compositions are rejected before any node boots,
// and the compositions a single gate makes possible — a policy over a quorum
// or under speculation — are accepted.
func TestMetaSchemeConfigRejections(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	base := Config{Workload: wl, Workers: 4, Seed: 7, MaxVirtual: time.Minute}
	cases := []struct {
		name   string
		sc     scheme.Config
		slow   []worker.Slowdown
		reject bool
	}{
		// Meta over the PSP gate: the policy moves the bound, the quorum stays.
		{"meta+variant", scheme.Config{Base: scheme.BSP, Quorum: 0.5, Policy: scheme.PolicyMeta}, nil, false},
		// Speculation idles while the meta policy holds the bound at 0.
		{"meta+spec", scheme.Config{Base: scheme.BSP, Spec: scheme.SpecAdaptive, Policy: scheme.PolicyMeta}, nil, false},
		{"bad-slowdown", scheme.Config{Base: scheme.BSP}, []worker.Slowdown{{Factor: 0.5, From: 0, Until: time.Second}}, true},
		// A static bound of 0 never arms a speculation window.
		{"psp+spec", scheme.Config{Base: scheme.BSP, Quorum: 0.5, Spec: scheme.SpecAdaptive}, nil, true},
		// Speculation starts once the handover releases the gate.
		{"sync-switch+spec", scheme.Config{Base: scheme.BSP, Policy: scheme.PolicySyncSwitch, SwitchAt: 3, Spec: scheme.SpecAdaptive}, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Scheme, cfg.Slowdowns = tc.sc, tc.slow
			if !tc.reject {
				if err := cfg.Validate(); err != nil {
					t.Errorf("Validate rejected a composition the gate supports: %v", err)
				}
				return
			}
			if _, err := Run(cfg); err == nil {
				t.Errorf("Run accepted an impossible composition")
			}
		})
	}
}
