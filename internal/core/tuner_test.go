package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(TunerConfig{Workers: 1}, nil, nil, []time.Time{{}}, []time.Duration{1}); err == nil {
		t.Error("expected error for m<2")
	}
	if _, err := Tune(TunerConfig{Workers: 2}, nil, nil, []time.Time{{}}, []time.Duration{1}); err == nil {
		t.Error("expected error for mis-sized inputs")
	}
	if _, err := Tune(TunerConfig{Workers: 2}, nil, nil, []time.Time{{}, {}}, []time.Duration{1, 0}); err == nil {
		t.Error("expected error for zero span")
	}
	unsorted := []PushRecord{{At: at(10)}, {At: at(5)}}
	if _, err := Tune(TunerConfig{Workers: 2}, unsorted, nil, []time.Time{at(0), at(0)}, []time.Duration{time.Second, time.Second}); err == nil {
		t.Error("expected error for unsorted history")
	}
}

func TestTuneEmptyEpochDisables(t *testing.T) {
	got, err := Tune(TunerConfig{Workers: 2}, nil, nil, []time.Time{at(0), at(0)}, []time.Duration{time.Second, time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got.Enabled {
		t.Error("no candidates must disable speculation")
	}
}

func TestTuneSimpleScenario(t *testing.T) {
	// Two workers, T = 1s each. Worker 0 pulls at t=0; worker 1 pushes at
	// t=100ms. A window of 100ms uncovers that push for worker 0:
	// gain 1, loss 2*(0.1s * 1/1s) = 0.2 -> F = 0.8 > 0.
	history := []PushRecord{
		{At: at(0), Worker: 0},
		{At: at(100), Worker: 1},
	}
	lastPull := []time.Time{at(0), at(100)}
	spans := []time.Duration{time.Second, time.Second}
	got, err := Tune(TunerConfig{Workers: 2}, history, history, lastPull, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Enabled {
		t.Fatal("expected speculation enabled")
	}
	if got.AbortTime != 100*time.Millisecond {
		t.Errorf("AbortTime = %v, want 100ms", got.AbortTime)
	}
	// F = (1 - 0.1) + (0 - 0.1) = 0.8
	if got.Improvement < 0.79 || got.Improvement > 0.81 {
		t.Errorf("Improvement = %v, want 0.8", got.Improvement)
	}
	// Rates: Delta*(m-1)/(T_i*m) = 0.1*1/(1*2) = 0.05.
	for i, r := range got.Rates {
		if r < 0.049 || r > 0.051 {
			t.Errorf("Rates[%d] = %v, want 0.05", i, r)
		}
	}
}

func TestTuneNegativeImprovementDisables(t *testing.T) {
	// Pushes spaced so far apart that any window's loss dwarfs its gain:
	// short iteration spans make the loss term huge.
	history := []PushRecord{
		{At: at(0), Worker: 0},
		{At: at(5000), Worker: 1},
	}
	lastPull := []time.Time{at(0), at(5000)}
	spans := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	got, err := Tune(TunerConfig{Workers: 2}, history, history, lastPull, spans)
	if err != nil {
		t.Fatal(err)
	}
	if got.Enabled {
		t.Errorf("expected speculation disabled, got Delta=%v F=%v", got.AbortTime, got.Improvement)
	}
}

// evalF computes Eq. (7) directly for cross-checking. alive, when non-nil,
// marks the members; an evicted worker has no term and its pushes are no
// one's gain.
func evalF(alive []bool, m int, history []PushRecord, lastPull []time.Time, spans []time.Duration, delta time.Duration) float64 {
	live := func(i int) bool { return alive == nil || alive[i] }
	n := 0
	for i := 0; i < m; i++ {
		if live(i) {
			n++
		}
	}
	var f float64
	for i := 0; i < m; i++ {
		if !live(i) {
			continue
		}
		gain := 0
		hi := lastPull[i].Add(delta)
		for _, p := range history {
			if p.Worker != i && live(p.Worker) && p.At.After(lastPull[i]) && !p.At.After(hi) {
				gain++
			}
		}
		f += float64(gain) - float64(delta)*float64(n-1)/float64(spans[i])
	}
	return f
}

// bruteForceCase is one small random tuner input: m workers, a push history
// over 10 s that is also the epoch, and random pulls and spans.
type bruteForceCase struct {
	m        int
	history  []PushRecord
	lastPull []time.Time
	spans    []time.Duration
}

// bruteForceCases draws the inputs TestTuneMatchesBruteForce and
// TestRunnerUpMatchesBruteForce check.
func bruteForceCases() []bruteForceCase {
	rng := rand.New(rand.NewSource(99))
	var out []bruteForceCase
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(5)
		// Random push history over 10 seconds.
		n := m * (1 + rng.Intn(3))
		history := make([]PushRecord, n)
		for i := range history {
			history[i] = PushRecord{At: at(rng.Intn(10000)), Worker: rng.Intn(m)}
		}
		sortPushes(history)
		lastPull := make([]time.Time, m)
		spans := make([]time.Duration, m)
		for i := range lastPull {
			lastPull[i] = at(rng.Intn(10000))
			spans[i] = time.Duration(500+rng.Intn(3000)) * time.Millisecond
		}
		out = append(out, bruteForceCase{m: m, history: history, lastPull: lastPull, spans: spans})
	}
	return out
}

// TestTuneMatchesBruteForce verifies the candidate-set argument (paper
// Sec. IV-B): because the gain estimate is a step function that only jumps
// when a window boundary crosses a push, evaluating pairwise push gaps finds
// an optimum at least as good as a dense grid search.
func TestTuneMatchesBruteForce(t *testing.T) {
	for trial, c := range bruteForceCases() {
		m, history, lastPull, spans := c.m, c.history, c.lastPull, c.spans
		got, err := Tune(TunerConfig{Workers: m}, history, history, lastPull, spans)
		if err != nil {
			t.Fatal(err)
		}

		// Dense grid search at 1ms resolution up to the history span.
		bestF := 0.0 // F(no speculation) baseline: disabled counts as 0
		for d := time.Millisecond; d <= 10*time.Second; d += time.Millisecond {
			if f := evalF(nil, m, history, lastPull, spans, d); f > bestF {
				bestF = f
			}
		}

		var gotF float64
		if got.Enabled {
			gotF = got.Improvement
			// Cross-check the tuner's own arithmetic.
			if direct := evalF(nil, m, history, lastPull, spans, got.AbortTime); direct < gotF-1e-9 || direct > gotF+1e-9 {
				t.Fatalf("trial %d: tuner reports F=%v but direct eval gives %v", trial, gotF, direct)
			}
		}
		// The grid is finer than push-gap candidates in pathological spots,
		// but the step-function argument says the tuner must match it.
		if gotF < bestF-1e-6 {
			t.Errorf("trial %d (m=%d): tuner F=%v < grid best %v", trial, m, gotF, bestF)
		}
	}
}

// TestRunnerUpMatchesBruteForce evaluates Eq. (7) directly at every distinct
// positive push-to-pull gap and requires the tuner's choice to be the first
// maximum and its RunnerUp the best of the rest (the smallest window on
// ties), on TestTuneMatchesBruteForce's inputs and on one with a tie below the
// best: worker 0 pulls at 0 and worker 1 pushes at u, 2u, 11u and 19u (u =
// 2^26 ns, spans 2^30 ns), so the windows score 0.875, 1.75, 1.625 and 1.625
// exactly.
func TestRunnerUpMatchesBruteForce(t *testing.T) {
	const u = time.Duration(1) << 26
	tie := bruteForceCase{m: 2, lastPull: []time.Time{time.Unix(0, 0), time.Unix(0, 0).Add(30 * u)}, spans: []time.Duration{16 * u, 16 * u}}
	for _, k := range []time.Duration{1, 2, 11, 19} {
		tie.history = append(tie.history, PushRecord{At: time.Unix(0, 0).Add(k * u), Worker: 1})
	}
	withRunnerUp, tied := 0, 0
	for trial, c := range append(bruteForceCases(), tie) {
		got, err := Tune(TunerConfig{Workers: c.m}, c.history, c.history, c.lastPull, c.spans)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []time.Duration
		for _, p := range c.history {
			for _, lp := range c.lastPull {
				if d := p.At.Sub(lp); d > 0 {
					gaps = append(gaps, d)
				}
			}
		}
		slices.Sort(gaps)
		gaps = slices.Compact(gaps)
		evals := make([]Candidate, len(gaps))
		first := 0
		for i, d := range gaps {
			evals[i] = Candidate{AbortTime: d, Improvement: evalF(nil, c.m, c.history, c.lastPull, c.spans, d)}
			if evals[i].Improvement > evals[first].Improvement {
				first = i
			}
		}
		var want Candidate
		if len(evals) >= 2 && evals[first].Improvement > 0 {
			second := -1
			for i, e := range evals {
				if i != first && (second < 0 || e.Improvement > evals[second].Improvement) {
					second = i
				}
			}
			want = evals[second]
			withRunnerUp++
			for i, e := range evals {
				if i != first && i != second && e.Improvement == want.Improvement {
					tied++
					break
				}
			}
			if got.AbortTime != evals[first].AbortTime {
				t.Errorf("trial %d: AbortTime %v, brute force %v", trial, got.AbortTime, evals[first].AbortTime)
			}
		}
		if got.RunnerUp != want {
			t.Errorf("trial %d: RunnerUp %+v, brute force %+v", trial, got.RunnerUp, want)
		}
	}
	if withRunnerUp == 0 || tied == 0 {
		t.Errorf("%d trials had a runner-up, %d of them tied with another window; want some of each", withRunnerUp, tied)
	}
}

// TestFleetTuneMatchesBruteForce checks the worker-major sweep at sim_fleet's
// m = 512 against Eq. 7 evaluated directly at every candidate the search
// returns (TestFleetTuneMatchesOracle checks the search itself): with workers
// evicted and MaxCandidates sub-sampling a range each of whose steps crosses
// many pushes, the whole Tuning — the arg-max (the first maximum), its
// estimate, the runner-up (the best of the rest, the smallest on ties) and the
// rates — must be what the direct evaluation gives, bit for bit.
func TestFleetTuneMatchesBruteForce(t *testing.T) {
	var tu Tuner
	enabled, withRunnerUp := 0, 0
	for seed := int64(0); seed < 4; seed++ {
		c := genFleetCase(rand.New(rand.NewSource(100+seed)), 4)
		c.cfg.MaxAbort, c.cfg.MaxCandidates = 200*time.Millisecond, 12
		cfg := c.cfg
		got, err := tu.Tune(cfg, c.history, c.epochPushes, c.lastPull, c.iterSpan)
		if err != nil {
			t.Fatal(err)
		}
		cands := slices.Clone(tu.candidates(cfg, c.epochPushes, c.lastPull))
		want := Tuning{Candidates: len(cands)}
		evals := make([]Candidate, len(cands))
		first := 0
		for j, d := range cands {
			evals[j] = Candidate{AbortTime: d, Improvement: evalF(cfg.Alive, cfg.Workers, c.history, c.lastPull, c.iterSpan, d)}
			if evals[j].Improvement > evals[first].Improvement {
				first = j
			}
		}
		if len(evals) > 0 && evals[first].Improvement > 0 {
			want.Enabled, want.AbortTime, want.Improvement = true, evals[first].AbortTime, evals[first].Improvement
			want.RunnerUp = bestOther(evals, want.AbortTime)
			aliveN := 0
			for _, a := range cfg.Alive {
				if a {
					aliveN++
				}
			}
			want.Rates = make([]float64, cfg.Workers)
			for i, a := range cfg.Alive {
				if a {
					want.Rates[i] = float64(want.AbortTime) * float64(aliveN-1) / (float64(c.iterSpan[i]) * float64(aliveN))
				}
			}
			enabled++
			if want.RunnerUp != (Candidate{}) {
				withRunnerUp++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d:\n got  %+v\n want %+v", seed, got, want)
		}
		if n := maxCrossing(c, cands); n < 64 {
			t.Errorf("seed %d: consecutive candidates lie at most %d pushes apart, want a case of 64 or more", seed, n)
		}
	}
	if enabled == 0 || withRunnerUp == 0 {
		t.Errorf("%d cases enabled speculation, %d with a runner-up; want some of each", enabled, withRunnerUp)
	}
}

func sortPushes(ps []PushRecord) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].At.Before(ps[j-1].At); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func TestCandidateClampAndCap(t *testing.T) {
	pushes := []PushRecord{
		{At: at(0)}, {At: at(10)}, {At: at(20)}, {At: at(500)}, {At: at(5000)},
	}
	pulls := []time.Time{at(0), at(10), at(20), at(500), at(5000)}
	cands := new(Tuner).candidates(TunerConfig{Workers: 2, MinAbort: 15 * time.Millisecond, MaxAbort: time.Second}, pushes, pulls)
	for _, d := range cands {
		if d < 15*time.Millisecond || d > time.Second {
			t.Errorf("candidate %v escapes clamp", d)
		}
	}
	capped := new(Tuner).candidates(TunerConfig{Workers: 2, MaxCandidates: 3}, pushes, pulls)
	if len(capped) > 3 {
		t.Errorf("cap ignored: %d candidates", len(capped))
	}
	// Sub-sampling must preserve ordering and bounds.
	for i := 1; i < len(capped); i++ {
		if capped[i] <= capped[i-1] {
			t.Errorf("capped candidates not increasing: %v", capped)
		}
	}
}

func TestCandidateCapTable(t *testing.T) {
	pushes := []PushRecord{
		{At: at(0)}, {At: at(10)}, {At: at(20)}, {At: at(500)}, {At: at(5000)},
	}
	pulls := []time.Time{at(-7), at(-3)}
	all := new(Tuner).candidates(TunerConfig{Workers: 2}, pushes, pulls)
	n := len(all)
	if n != 10 {
		t.Fatalf("fixture yields %d distinct candidates, want 10", n)
	}
	for _, c := range []struct {
		max  int
		want []time.Duration
	}{
		{1, []time.Duration{all[n/2]}}, // used to divide by zero and panic
		{2, []time.Duration{all[0], all[n-1]}},
		{n - 1, append(append([]time.Duration{}, all[:4]...), all[5:]...)}, // step 9/8 rounds past index 4
		{n, all},
		{n + 1, all},
	} {
		got := new(Tuner).candidates(TunerConfig{Workers: 2, MaxCandidates: c.max}, pushes, pulls)
		if !slices.Equal(got, c.want) {
			t.Errorf("MaxCandidates %d: got %v, want %v", c.max, got, c.want)
		}
		// Tune must survive the same cap end to end.
		if _, err := Tune(TunerConfig{Workers: 2, MaxCandidates: c.max}, pushes, pushes, pulls, []time.Duration{time.Second, time.Second}); err != nil {
			t.Errorf("MaxCandidates %d: Tune: %v", c.max, err)
		}
	}
}

func TestTuneAliveFilter(t *testing.T) {
	// Three workers, but worker 2 is evicted. The tuner must behave exactly
	// as the two-live-worker problem: worker 2's pushes predict no gain,
	// its stale pull seeds no candidates, and its rate comes back zero.
	history := []PushRecord{
		{At: at(0), Worker: 0},
		{At: at(50), Worker: 2}, // evicted worker's push: ignored
		{At: at(100), Worker: 1},
	}
	lastPull := []time.Time{at(0), at(100), at(900)} // worker 2's pull is stale
	spans := []time.Duration{time.Second, time.Second, time.Second}
	alive := []bool{true, true, false}

	got, err := Tune(TunerConfig{Workers: 3, Alive: alive}, history, history, lastPull, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Enabled {
		t.Fatal("expected speculation enabled")
	}
	// Identical numbers to TestTuneSimpleScenario's two-worker problem.
	if got.AbortTime != 100*time.Millisecond {
		t.Errorf("AbortTime = %v, want 100ms", got.AbortTime)
	}
	if got.Improvement < 0.79 || got.Improvement > 0.81 {
		t.Errorf("Improvement = %v, want 0.8", got.Improvement)
	}
	for i := 0; i < 2; i++ {
		if r := got.Rates[i]; r < 0.049 || r > 0.051 {
			t.Errorf("Rates[%d] = %v, want 0.05", i, r)
		}
	}
	if got.Rates[2] != 0 {
		t.Errorf("Rates[2] = %v, want 0 (evicted)", got.Rates[2])
	}

	// Fewer than two live members cannot tune.
	if _, err := Tune(TunerConfig{Workers: 3, Alive: []bool{true, false, false}}, history, history, lastPull, spans); err == nil {
		t.Error("expected error for <2 live workers")
	}
	// Mis-sized Alive is rejected.
	if _, err := Tune(TunerConfig{Workers: 3, Alive: []bool{true, true}}, history, history, lastPull, spans); err == nil {
		t.Error("expected error for mis-sized Alive")
	}
}
