package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/trace"
)

// traceDigest hashes a run's full event trace (same recipe as the scheme
// golden test).
func traceDigest(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestEmptyStragglerPlanByteIdentical is the golden-path guard: a nil plan
// and an explicitly empty plan must produce byte-identical runs — no speed
// scripts, no link hook, no detection timer, no extra messages.
func TestEmptyStragglerPlanByteIdentical(t *testing.T) {
	run := func(p *stragglers.Plan) string {
		wl, err := NewTiny(4, 7)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		res, err := Run(Config{
			Workload:   wl,
			Scheme:     scheme.Config{Base: scheme.BSP},
			Workers:    4,
			Seed:       7,
			Stragglers: p,
			MaxVirtual: 2 * time.Minute,
			KeepTrace:  true,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if p != nil && res.Stragglers != nil {
			t.Error("empty plan produced straggler stats; want the nil-plan path")
		}
		return traceDigest(t, res)
	}
	if a, b := run(nil), run(&stragglers.Plan{}); a != b {
		t.Errorf("empty plan drifted from nil plan: %s vs %s", a, b)
	}
}

// stragglerRun executes one profile cell on the tiny workload.
func stragglerRun(t *testing.T, sc scheme.Config, plan *stragglers.Plan, mit stragglers.Mitigation, mut func(*Config)) *Result {
	t.Helper()
	wl, err := NewTiny(6, 11)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	cfg := Config{
		Workload:       wl,
		Scheme:         sc,
		Workers:        4,
		Seed:           11,
		Stragglers:     plan,
		Mitigation:     mit,
		DisableHiccups: true,
		MaxVirtual:     4 * time.Minute,
		KeepTrace:      true,
	}
	if mut != nil {
		mut(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestDegradeProfileDetection: a sustained degrade profile must be detected
// with perfect precision and recall — the injected worker (and only it)
// reaches the sustained level, and the score lands in the result and the
// /stragglerz snapshot.
func TestDegradeProfileDetection(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindDegrade, Worker: 2, At: 5 * time.Second, Speed: 0.35},
	}}
	res := stragglerRun(t, scheme.Config{Base: scheme.ASP}, plan, stragglers.MitigateNone, func(c *Config) {
		wl := c.Workload
		wl.TargetLoss = 0 // run the full horizon so the flag can escalate
		c.Workload = wl
	})
	st := res.Stragglers
	if st == nil {
		t.Fatal("no straggler stats on a profiled run")
	}
	if got := st.Score.Truth; len(got) != 1 || got[0] != 2 {
		t.Fatalf("ground truth %v, want [2]", got)
	}
	if st.Score.Recall != 1 {
		t.Errorf("recall %.2f (detected %v), want 1", st.Score.Recall, st.Score.Detected)
	}
	if st.Score.Precision != 1 {
		t.Errorf("precision %.2f (detected %v), want 1", st.Score.Precision, st.Score.Detected)
	}
	if st.Mitigation.Clones != 0 || st.Mitigation.Rebalances != 0 {
		t.Errorf("unmitigated run acted: %+v", st.Mitigation)
	}
}

// TestCloneMitigationDigestSafety is the dedup safety property: with the
// clone guaranteed to lose every race (SpareSpeed well below the degraded
// original, zero network jitter), a cloned run must end at exactly the
// unmitigated model digest — every clone push acknowledged but never
// applied.
func TestCloneMitigationDigestSafety(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindDegrade, Worker: 1, At: 5 * time.Second, Speed: 0.5},
	}}
	net := des.NetModel{Latency: 250 * time.Microsecond, BytesPerSec: 125e6}
	run := func(mit stragglers.Mitigation) *Result {
		return stragglerRun(t, scheme.Config{Base: scheme.BSP}, plan, mit, func(c *Config) {
			c.Net = net
			c.SpareSpeed = 0.2 // always slower than the 0.5x-degraded original
			c.MaxItersPerWorker = 40
			wl := c.Workload
			wl.TargetLoss = 0
			wl.JitterSigma = 0
			c.Workload = wl
		})
	}
	base := run(stragglers.MitigateNone)
	cloned := run(stragglers.MitigateClone)
	if cloned.Stragglers.Mitigation.Clones < 1 {
		t.Fatalf("no clone started: %+v", cloned.Stragglers.Mitigation)
	}
	if cloned.Stragglers.CloneDeduped < 1 {
		t.Errorf("clone raced but no push was deduped: %+v", cloned.Stragglers)
	}
	if base.ParamsDigest != cloned.ParamsDigest {
		t.Errorf("clone mitigation changed the model: %s vs %s (deduped=%d dropped=%d)",
			base.ParamsDigest, cloned.ParamsDigest,
			cloned.Stragglers.CloneDeduped, cloned.Stragglers.CloneDropped)
	}
}

// TestCloneMitigationUnblocksPausedBarrier: under BSP a paused worker stalls
// every barrier; the overdue detector must force-flag it (it emits no spans
// at all) and the clone's translated notifies must keep the barrier
// releasing. The cloned run must make strictly more progress.
func TestCloneMitigationUnblocksPausedBarrier(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindPause, Worker: 3, At: 10 * time.Second, Duration: 3 * time.Minute},
	}}
	run := func(mit stragglers.Mitigation) *Result {
		return stragglerRun(t, scheme.Config{Base: scheme.BSP}, plan, mit, func(c *Config) {
			wl := c.Workload
			wl.TargetLoss = 0
			c.Workload = wl
		})
	}
	base := run(stragglers.MitigateNone)
	cloned := run(stragglers.MitigateClone)
	if cloned.Stragglers.Mitigation.Clones < 1 {
		t.Fatalf("paused worker never cloned: %+v", cloned.Stragglers.Mitigation)
	}
	if cloned.TotalIters <= base.TotalIters {
		t.Errorf("clone mitigation did not unblock the barrier: %d iters vs %d unmitigated",
			cloned.TotalIters, base.TotalIters)
	}
	// The pause is invisible to span scoring, so recall relies on the
	// overdue force-flag path.
	if cloned.Stragglers.Score.Recall != 1 {
		t.Errorf("paused straggler not detected: %+v", cloned.Stragglers.Score)
	}
}

// TestRebalanceMitigationSwapsStraggler: the rebalance mode must retire the
// degraded worker through the scheduler's join / retire path and admit a
// healthy replacement from the spare slots.
func TestRebalanceMitigationSwapsStraggler(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindDegrade, Worker: 0, At: 5 * time.Second, Speed: 0.25},
	}}
	res := stragglerRun(t, scheme.Config{Base: scheme.SSP, Staleness: 3}, plan, stragglers.MitigateRebalance, func(c *Config) {
		c.Spares = 1
		wl := c.Workload
		wl.TargetLoss = 0
		c.Workload = wl
	})
	if res.Stragglers.Mitigation.Rebalances != 1 {
		t.Fatalf("rebalances = %d, want 1 (stats %+v)", res.Stragglers.Mitigation.Rebalances, res.Stragglers.Mitigation)
	}
	if res.Scale == nil {
		t.Fatal("no scale stats on a rebalance run")
	}
	if res.Scale.Joins != 1 || res.Scale.Leaves != 1 {
		t.Errorf("joins=%d leaves=%d, want 1 join and 1 leave", res.Scale.Joins, res.Scale.Leaves)
	}
	var sawJoin, sawLeave bool
	for _, ev := range res.Trace.Events() {
		switch ev.Kind {
		case trace.KindJoin:
			sawJoin = true
		case trace.KindLeave:
			sawLeave = true
		}
	}
	if !sawJoin || !sawLeave {
		t.Errorf("trace missing membership events: join=%v leave=%v", sawJoin, sawLeave)
	}
}

// TestRebalanceTunerTracksMembership: Algorithm 1 derives the per-worker
// ABORT_RATEs from the current membership, so once rebalance swaps the
// straggler for a replacement on the spare slot, a tuning rates the
// replacement and gives the retired straggler none, and no tuning ever rates
// both at once.
func TestRebalanceTunerTracksMembership(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindDegrade, Worker: 0, At: 5 * time.Second, Speed: 0.25},
	}}
	const spare = 4 // the first spare slot: Workers + 0
	var tunings, swapped int
	res := stragglerRun(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, plan, stragglers.MitigateRebalance, func(c *Config) {
		c.Spares = 1
		wl := c.Workload
		wl.TargetLoss = 0
		c.Workload = wl
		c.OnTune = func(_ int, tn core.Tuning) {
			if !tn.Enabled {
				return
			}
			tunings++
			switch old, repl := tn.Rates[0] > 0, tn.Rates[spare] > 0; {
			case old && repl:
				t.Errorf("a tuning rates both the straggler and its replacement: %v", tn.Rates)
			case repl:
				swapped++
			}
		}
	})
	if res.Scale == nil || res.Scale.Joins != 1 || res.Scale.Leaves != 1 {
		t.Fatalf("membership changes %+v, want 1 join and 1 leave", res.Scale)
	}
	if swapped == 0 {
		t.Errorf("none of %d enabled tunings rated the replacement on slot %d", tunings, spare)
	}
}

// TestStragglerRunsDeterministic: every profile kind × mitigation mode must
// be reproducible — two same-seed runs end at identical trace digests.
func TestStragglerRunsDeterministic(t *testing.T) {
	plan := &stragglers.Plan{Events: []stragglers.Event{
		{Kind: stragglers.KindPause, Worker: 0, At: 8 * time.Second, Duration: 15 * time.Second},
		{Kind: stragglers.KindDegrade, Worker: 2, At: 5 * time.Second, Speed: 0.5},
		{Kind: stragglers.KindCongest, Worker: 3, At: 12 * time.Second, Speed: 0.4},
	}}
	for _, mit := range []stragglers.Mitigation{stragglers.MitigateNone, stragglers.MitigateClone, stragglers.MitigateRebalance} {
		run := func() string {
			res := stragglerRun(t, scheme.Config{Base: scheme.SSP, Staleness: 3}, plan, mit, nil)
			return traceDigest(t, res)
		}
		if a, b := run(), run(); a != b {
			t.Errorf("mitigation %q not deterministic: %s vs %s", mit, a, b)
		}
	}
}
