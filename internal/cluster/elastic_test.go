package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/elastic"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

func elasticDigest(t *testing.T, cfg Config) (string, *Result) {
	t.Helper()
	cfg.KeepTrace = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), res
}

// TestElasticEmptyPlanByteIdentical asserts the acceptance criterion that a
// run with an empty scale plan is byte-identical to today's legacy path: the
// routing machinery must add zero overhead when nothing scales.
func TestElasticEmptyPlanByteIdentical(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	digest, _ := elasticDigest(t, Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Workers:    4,
		Seed:       7,
		Scale:      &elastic.Plan{},
		MaxVirtual: 2 * time.Minute,
	})
	if digest != goldenTinyDigest {
		t.Errorf("empty scale plan digest %s, golden %s", digest, goldenTinyDigest)
	}
}

func growShrinkConfig(t *testing.T, base scheme.Config) Config {
	t.Helper()
	// 8 data shards so the cluster can grow to 8 workers; start at 4.
	wl, err := NewTiny(8, 11)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return Config{
		Workload: wl,
		Scheme:   base,
		Workers:  4,
		Servers:  4,
		Seed:     11,
		// The tiny workload converges in ~7 virtual seconds, so the grow and
		// shrink must both land before that for the full cycle to exercise.
		Scale: elastic.GrowShrink(4, 4, 4, 2,
			2*time.Second, 5*time.Second),
		MaxVirtual: 3 * time.Minute,
	}
}

// TestElasticDeterministic asserts the acceptance criterion that identical
// seed + scale plan produce the identical event trace across two runs.
func TestElasticDeterministic(t *testing.T) {
	cfg := growShrinkConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive})
	d1, r1 := elasticDigest(t, cfg)
	cfg2 := growShrinkConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive})
	d2, r2 := elasticDigest(t, cfg2)
	if d1 != d2 {
		t.Errorf("digests differ across identical runs: %s vs %s", d1, d2)
	}
	if r1.TotalIters != r2.TotalIters {
		t.Errorf("iters differ: %d vs %d", r1.TotalIters, r2.TotalIters)
	}
	if r1.Scale.Joins != r2.Scale.Joins || r1.Scale.Leaves != r2.Scale.Leaves ||
		r1.Scale.Migrations != r2.Scale.Migrations || r1.Scale.MigrationBytes != r2.Scale.MigrationBytes {
		t.Errorf("scale stats differ: %+v vs %+v", r1.Scale, r2.Scale)
	}
}

// TestElasticGrowShrinkConverges runs the acceptance scenario: 4 workers grow
// to 8 (with two extra server shards) and shrink back, and the run still
// converges, with every push accounted for.
func TestElasticGrowShrinkConverges(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   scheme.Config
	}{
		{"asp-spec", scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}},
		{"bsp", scheme.Config{Base: scheme.BSP}},
		{"ssp", scheme.Config{Base: scheme.SSP, Staleness: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := growShrinkConfig(t, tc.sc)
			_, res := elasticDigest(t, cfg)
			if !res.Converged {
				t.Fatalf("elastic run did not converge (final loss %.4f)", res.FinalLoss)
			}
			if res.Scale == nil {
				t.Fatal("no scale stats on elastic run")
			}
			if res.Scale.Joins != 4 {
				t.Errorf("joins = %d, want 4", res.Scale.Joins)
			}
			if res.Scale.Leaves != 4 {
				t.Errorf("leaves = %d, want 4", res.Scale.Leaves)
			}
			// Two add-server events and two remove-server events, each its own
			// migration (commands queue FIFO behind an in-flight migration).
			if res.Scale.Migrations != 4 {
				t.Errorf("migrations = %d, want 4", res.Scale.Migrations)
			}
			if res.Scale.MigrationBytes <= 0 {
				t.Errorf("migration bytes = %d, want > 0", res.Scale.MigrationBytes)
			}
			if len(res.Scale.Durations) != int(res.Scale.Migrations) {
				t.Errorf("%d migration durations for %d migrations", len(res.Scale.Durations), res.Scale.Migrations)
			}

			// Push accounting: a worker only counts an iteration done once
			// every shard in its routing view acknowledged (and therefore
			// applied) the push, so the servers must have applied at least
			// min-shards (4) pushes per completed iteration. Fewer would mean
			// a push was lost in a migration.
			if res.TotalIters <= 0 {
				t.Fatal("no iterations completed")
			}
			if res.Obs.ServerPushes < 4*res.TotalIters {
				t.Errorf("servers applied %d pushes for %d iterations x >=4 shards; pushes were lost", res.Obs.ServerPushes, res.TotalIters)
			}

			// The trace must carry the scale events for the tooling.
			var joins, leaves, migrates int
			for _, ev := range res.Trace.Events() {
				switch ev.Kind {
				case trace.KindJoin:
					joins++
				case trace.KindLeave:
					leaves++
				case trace.KindMigrate:
					migrates++
				}
			}
			if joins != 4 || leaves != 4 || migrates != 4 {
				t.Errorf("trace has %d joins, %d leaves, %d migrates; want 4/4/4", joins, leaves, migrates)
			}
		})
	}
}

// TestElasticMatchesStaticAfterShrink compares the elastic 4→8→4 run against
// the static 4-worker baseline: both must converge to the target, and the
// elastic run must not lose the model (final loss within the same ballpark).
func TestElasticMatchesStaticAfterShrink(t *testing.T) {
	cfg := growShrinkConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive})
	_, res := elasticDigest(t, cfg)

	static := cfg
	static.Scale = nil
	_, base := elasticDigest(t, static)

	if !res.Converged || !base.Converged {
		t.Fatalf("convergence: elastic=%v static=%v", res.Converged, base.Converged)
	}
	tol := 2 * cfg.Workload.TargetLoss
	if res.FinalLoss > tol {
		t.Errorf("elastic final loss %.4f exceeds tolerance %.4f (static %.4f)", res.FinalLoss, tol, base.FinalLoss)
	}
	// More compute mid-run must not slow convergence down dramatically.
	if res.Converged && base.Converged && res.ConvergeTime > 2*base.ConvergeTime+20*time.Second {
		t.Errorf("elastic converged at %v, static at %v", res.ConvergeTime, base.ConvergeTime)
	}
}

// TestElasticConfigValidation covers the shape checks: a model must have at
// least one parameter per server shard, both for the initial cluster and for
// the capacity a scale plan grows into, and unsupported combinations fail
// loudly instead of misbehaving.
func TestElasticConfigValidation(t *testing.T) {
	wl, err := NewTiny(4, 1) // dim 24
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	base := Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP},
		Workers:    4,
		MaxVirtual: time.Minute,
	}

	tooMany := base
	tooMany.Servers = 25 // dim is 24
	if _, err := Run(tooMany); err == nil {
		t.Error("dim < Servers accepted")
	}

	planTooMany := base
	planTooMany.Servers = 4
	planTooMany.Scale = &elastic.Plan{Events: []elastic.Event{
		{Kind: elastic.KindAddServer, At: time.Second, Node: 24}, // grows capacity to 25 > dim
	}}
	if _, err := Run(planTooMany); err == nil {
		t.Error("scale plan growing past dim accepted")
	}

	badPlan := base
	badPlan.Scale = &elastic.Plan{Events: []elastic.Event{{Kind: "warp", At: time.Second}}}
	if _, err := Run(badPlan); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestElasticTunerTracksMembership asserts that Algorithm 1 re-derives the
// per-worker ABORT_RATEs from the *current* membership: after the cluster
// grows from 4 to 8 workers, some tuning epoch must assign nonzero rates to
// more than the original 4 workers.
func TestElasticTunerTracksMembership(t *testing.T) {
	wl, err := NewTiny(8, 5)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	maxRated := 0
	_, err = Run(Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Workers:    4,
		Servers:    2,
		Seed:       5,
		Scale:      elastic.GrowShrink(4, 4, 2, 0, 8*time.Second, 0),
		MaxVirtual: 90 * time.Second,
		OnTune: func(epoch int, tn core.Tuning) {
			rated := 0
			for _, r := range tn.Rates {
				if r > 0 {
					rated++
				}
			}
			if rated > maxRated {
				maxRated = rated
			}
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if maxRated <= 4 {
		t.Errorf("tuner never rated more than %d workers; scale-up to 8 not reflected", maxRated)
	}
}
