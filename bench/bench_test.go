package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// testScale divides every iteration budget so the whole file runs in a few
// seconds.
const testScale = 200

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that got holds exactly the metrics want names: each
// present, finite, unit-tagged as BENCHMARK.json says, and well named.
func checkMetrics(t *testing.T, workload string, got map[string]metric, want []ledgerMetric) {
	t.Helper()
	for _, lm := range want {
		m, ok := got[lm.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", workload, lm.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, lm.Name, m.Value)
		case m.Unit == "" || m.Unit != lm.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, lm.Name, m.Unit, lm.Unit)
		case !metricName.MatchString(lm.Name):
			t.Errorf("%s: metric name %q is malformed", workload, lm.Name)
		}
	}
	if len(got) != len(want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d: %v", workload, len(got), len(want), names)
	}
}

func TestLedgerEveryWorkload(t *testing.T) {
	lf, err := readLedger()
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(lf.Workloads), len(specs))
	}
	for i, sp := range specs {
		if lf.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, lf.Workloads[i].Name, sp.name)
		}
		rep, err := runLedger(sp.scaled(testScale), 7, time.Millisecond, 1, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", sp.name, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
		}
		checkMetrics(t, sp.name, rep.Metrics, lf.EndToEnd)
		for _, lm := range lf.EndToEnd {
			if !(rep.Metrics[lm.Name].Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, lm.Name, rep.Metrics[lm.Name].Value)
			}
		}
	}
}

// TestTracedRun covers one workload of each runtime: tcp_topk (live hosts,
// codec on) and sim_fleet (the DES assembly, which must reproduce
// cluster.Run's digest or the run is marked incorrect).
func TestTracedRun(t *testing.T) {
	lf, err := readLedger()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tcp_topk", "sim_fleet"} {
		sp, _ := specByName(name)
		path := filepath.Join(t.TempDir(), "trace.json")
		rep, err := runTraced(sp.scaled(testScale), 7, time.Millisecond, path, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: traced run incorrect: %v", name, rep.problems)
		}
		checkMetrics(t, name, rep.Metrics, lf.PerLayer)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name, Ph string
				Ts, Dur  float64
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &file); err != nil {
			t.Fatalf("%s: trace file does not load: %v", name, err)
		}
		spans := 0
		for _, ev := range file.TraceEvents {
			if ev.Ph == "X" && ev.Dur >= 0 {
				spans++
			}
		}
		if spans < 10 {
			t.Errorf("%s: trace file holds %d spans", name, spans)
		}
	}
}

func TestShortCountedPushesFailTheRun(t *testing.T) {
	r := &round{attempted: 100}
	checkPushes(r, 199, 200)
	if len(r.problems) != 1 || r.failed == 0 {
		t.Errorf("a lost push passed: problems=%v failed=%d", r.problems, r.failed)
	}
	ok := &round{attempted: 100}
	if checkPushes(ok, 200, 200); len(ok.problems) != 0 || ok.failed != 0 {
		t.Errorf("an exact push count failed: %v", ok.problems)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, Python gives 3.5 24.0 160.0", q1, q2, q3)
	}
}

// TestChunkMedians pins the sampling of iter_p50_ms: full chunks only, except
// that a run too short for one chunk is a single sample.
func TestChunkMedians(t *testing.T) {
	got := chunkMedians([]float64{3, 1, 2, 9, 7, 8, 100}, 3)
	if len(got) != 2 || got[0] != 2 || got[1] != 8 {
		t.Errorf("chunkMedians = %v, want [2 8]", got)
	}
	if got := chunkMedians([]float64{5, 1}, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("short input: chunkMedians = %v, want [3]", got)
	}
}

// TestGradTapChangesNothing runs sim_paper's scaled round with and without
// the slicing wrapper around its model: same parameters, bit for bit.
func TestGradTapChangesNothing(t *testing.T) {
	sp, _ := specByName("sim_paper")
	sp = sp.scaled(testScale)
	sp.slice = 8
	tapped, err := runSimRound(sp, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp.slice = 0
	plain, err := runSimRound(sp, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tapped.digest != plain.digest || tapped.virtual != plain.virtual {
		t.Errorf("tapped run ended on %.12s at %v, plain on %.12s at %v", tapped.digest, tapped.virtual, plain.digest, plain.virtual)
	}
	if len(tapped.slices) == 0 || len(plain.slices) != 0 {
		t.Errorf("slices: %d tapped, %d plain", len(tapped.slices), len(plain.slices))
	}
}

// TestStitchTakesTheFastReplayOfEachSlice: three replays, each slow in a
// different slice, stitch to the round none of them was.
func TestStitchTakesTheFastReplayOfEachSlice(t *testing.T) {
	ms := time.Millisecond
	mk := func(walls ...time.Duration) *round {
		r := &round{}
		for _, w := range walls {
			r.slices = append(r.slices, slice{iters: 10, wall: w, cpu: w})
		}
		return r
	}
	st, ok := stitch([]*round{mk(10*ms, 50*ms, 10*ms), mk(50*ms, 10*ms, 10*ms), mk(10*ms, 10*ms, 50*ms)})
	if !ok || st.iters != 30 || st.wall != 30*ms || st.cpu != 30*ms {
		t.Errorf("stitch = %+v, %v; want 30 iterations in 30 ms", st, ok)
	}
	if _, ok := stitch([]*round{mk(ms, ms), mk(ms)}); ok {
		t.Error("rounds with different slice counts stitched")
	}
}
