package perf

import (
	"os"
	"strings"
	"testing"
)

const baseline = `{
	"schema": "specsync-perf/v1",
	"wire": {
		"marshal_ns_op": 1000,
		"marshal_allocs_op": 2,
		"msgs_per_sec": 50000
	},
	"des": {
		"events_per_sec": 400000,
		"wall_seconds": 0.01,
		"workers": 8
	}
}`

func mustCompare(t *testing.T, oldJSON, newJSON string, opts Options) *Result {
	t.Helper()
	res, err := Compare([]byte(oldJSON), []byte(newJSON), opts)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return res
}

// TestCompareFlagsTwoXRegression is the acceptance check: a synthetic 2x
// slowdown on a ns-metric must fail at the default tolerance.
func TestCompareFlagsTwoXRegression(t *testing.T) {
	slower := strings.Replace(baseline, `"marshal_ns_op": 1000`, `"marshal_ns_op": 2000`, 1)
	res := mustCompare(t, baseline, slower, Options{})
	regs := res.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %d (%+v), want exactly the 2x marshal slowdown", len(regs), regs)
	}
	d := regs[0]
	if d.Key != "wire.marshal_ns_op" || d.Direction != LowerIsBetter {
		t.Errorf("regressed delta = %+v", d)
	}
	if d.WorseFrac != 1.0 {
		t.Errorf("WorseFrac = %v, want 1.0 (2x)", d.WorseFrac)
	}
}

func TestCompareWithinToleranceAndImprovementPass(t *testing.T) {
	// +20% time is inside the default 50% tolerance; faster is never flagged.
	wiggle := strings.Replace(baseline, `"marshal_ns_op": 1000`, `"marshal_ns_op": 1200`, 1)
	wiggle = strings.Replace(wiggle, `"events_per_sec": 400000`, `"events_per_sec": 700000`, 1)
	if regs := mustCompare(t, baseline, wiggle, Options{}).Regressions(); len(regs) != 0 {
		t.Errorf("regressions = %+v, want none", regs)
	}

	// Tightening the tolerance under the wiggle flags it.
	if regs := mustCompare(t, baseline, wiggle, Options{TimeTolerance: 0.1}).Regressions(); len(regs) != 1 {
		t.Errorf("at 10%% tolerance regressions = %+v, want the +20%% marshal", regs)
	}
}

// TestCompareHigherIsBetter: halving a throughput metric is a regression even
// though the raw number went down.
func TestCompareHigherIsBetter(t *testing.T) {
	halved := strings.Replace(baseline, `"msgs_per_sec": 50000`, `"msgs_per_sec": 25000`, 1)
	regs := mustCompare(t, baseline, halved, Options{}).Regressions()
	if len(regs) != 1 || regs[0].Key != "wire.msgs_per_sec" {
		t.Fatalf("regressions = %+v, want halved msgs_per_sec", regs)
	}
	// Halved throughput scores in the slowdown domain: old/new - 1 = 1.0,
	// the same as a doubled latency.
	if regs[0].Direction != HigherIsBetter || regs[0].WorseFrac != 1.0 {
		t.Errorf("delta = %+v, want higher-is-better WorseFrac 1.0", regs[0])
	}
}

// TestCompareAllocTolerance: allocs gate tighter than times (default 25%).
func TestCompareAllocTolerance(t *testing.T) {
	moreAllocs := strings.Replace(baseline, `"marshal_allocs_op": 2`, `"marshal_allocs_op": 3`, 1)
	regs := mustCompare(t, baseline, moreAllocs, Options{}).Regressions()
	if len(regs) != 1 || regs[0].Key != "wire.marshal_allocs_op" {
		t.Fatalf("regressions = %+v, want +50%% allocs over the 25%% gate", regs)
	}
}

// TestCompareZeroAllocBaselineGates: a path pinned at zero allocs/op has no
// fractional slack — one allocation fails the gate, zero still passes.
func TestCompareZeroAllocBaselineGates(t *testing.T) {
	zero := strings.Replace(baseline, `"marshal_allocs_op": 2`, `"marshal_allocs_op": 0`, 1)
	if regs := mustCompare(t, zero, zero, Options{}).Regressions(); len(regs) != 0 {
		t.Errorf("zero against zero regressed: %+v", regs)
	}
	one := strings.Replace(baseline, `"marshal_allocs_op": 2`, `"marshal_allocs_op": 1`, 1)
	regs := mustCompare(t, zero, one, Options{}).Regressions()
	if len(regs) != 1 || regs[0].Key != "wire.marshal_allocs_op" {
		t.Fatalf("regressions = %+v, want the 0 -> 1 allocs/op", regs)
	}
}

// TestCompareInformationalKeysNeverGate: workers/wall_seconds style keys are
// context, not gates — even a wild swing passes.
func TestCompareInformationalKeysNeverGate(t *testing.T) {
	swung := strings.Replace(baseline, `"workers": 8`, `"workers": 64`, 1)
	if regs := mustCompare(t, baseline, swung, Options{}).Regressions(); len(regs) != 0 {
		t.Errorf("informational key gated: %+v", regs)
	}
}

func TestFlattenNamedArrays(t *testing.T) {
	doc := `{"codecs": [
		{"codec": "dense", "encode_ns_op": 10},
		{"codec": "topk", "encode_ns_op": 20}
	], "plain": [1, 2]}`
	flat, err := Flatten([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"codecs.dense.encode_ns_op": 10,
		"codecs.topk.encode_ns_op":  20,
		"plain.0":                   1,
		"plain.1":                   2,
	} {
		if got, ok := flat[key]; !ok || got != want {
			t.Errorf("flat[%q] = %v (present=%v), want %v", key, got, ok, want)
		}
	}
}

func TestCompareReportsOnlyKeys(t *testing.T) {
	gained := strings.Replace(baseline, `"workers": 8`, `"workers": 8, "new_metric_ns": 5`, 1)
	res := mustCompare(t, baseline, gained, Options{})
	if len(res.NewOnly) != 1 || res.NewOnly[0] != "des.new_metric_ns" {
		t.Errorf("NewOnly = %v", res.NewOnly)
	}
	res = mustCompare(t, gained, baseline, Options{})
	if len(res.OldOnly) != 1 || res.OldOnly[0] != "des.new_metric_ns" {
		t.Errorf("OldOnly = %v", res.OldOnly)
	}
}

// TestCommittedBaselineSelfCompares: the checked-in BENCH_perf.json must be
// valid input to the gate and compare clean against itself.
func TestCommittedBaselineSelfCompares(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_perf.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	res := mustCompare(t, string(data), string(data), Options{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Errorf("baseline regresses against itself: %+v", regs)
	}
	if len(res.Deltas) == 0 {
		t.Error("baseline flattened to zero metrics")
	}
}
