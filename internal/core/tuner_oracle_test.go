package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
)

// oracleTune and oracleCandidateWindows are the tuner as it stood before the
// cursor rewrite, kept verbatim as the reference the property test below
// compares against: map-built candidate set, time.Time indexes, four binary
// searches per (candidate, worker). The one addition is the runner-up, which
// oracleTune picks by brute force over every window it evaluated.
func oracleTune(cfg TunerConfig, history, epochPushes []PushRecord, lastPull []time.Time, iterSpan []time.Duration) (Tuning, error) {
	m := cfg.Workers
	if m < 2 {
		return Tuning{}, fmt.Errorf("core: tuner needs at least 2 workers, got %d", m)
	}
	if cfg.Alive != nil && len(cfg.Alive) != m {
		return Tuning{}, fmt.Errorf("core: Alive sized %d, want %d", len(cfg.Alive), m)
	}
	alive := func(i int) bool { return cfg.Alive == nil || cfg.Alive[i] }
	aliveN := 0
	for i := 0; i < m; i++ {
		if alive(i) {
			aliveN++
		}
	}
	if aliveN < 2 {
		return Tuning{}, fmt.Errorf("core: tuner needs at least 2 live workers, got %d", aliveN)
	}
	if len(lastPull) != m || len(iterSpan) != m {
		return Tuning{}, fmt.Errorf("core: tuner inputs sized %d/%d, want %d", len(lastPull), len(iterSpan), m)
	}
	for i, span := range iterSpan {
		if alive(i) && span <= 0 {
			return Tuning{}, fmt.Errorf("core: worker %d has non-positive iteration span %v", i, span)
		}
	}
	if !sort.SliceIsSorted(history, func(i, j int) bool { return history[i].At.Before(history[j].At) }) {
		return Tuning{}, fmt.Errorf("core: history not sorted by time")
	}

	candidates := oracleCandidateWindows(cfg, epochPushes, lastPull)
	if len(candidates) == 0 {
		return Tuning{Enabled: false, Candidates: 0}, nil
	}

	// Index pushes for O(log n) window counting: all pushes and per-worker.
	// Pushes from evicted workers predict no future gain and are excluded.
	allTimes := make([]time.Time, 0, len(history))
	perWorker := make(map[int][]time.Time, m)
	for _, p := range history {
		if p.Worker >= 0 && p.Worker < m && !alive(p.Worker) {
			continue
		}
		allTimes = append(allTimes, p.At)
		perWorker[p.Worker] = append(perWorker[p.Worker], p.At)
	}

	countIn := func(ts []time.Time, after, upTo time.Time) int {
		lo := sort.Search(len(ts), func(i int) bool { return ts[i].After(after) })
		hi := sort.Search(len(ts), func(i int) bool { return ts[i].After(upTo) })
		return hi - lo
	}

	best := Tuning{Enabled: false, Candidates: len(candidates)}
	evals := make([]Candidate, 0, len(candidates))
	for _, delta := range candidates {
		var f float64
		for i := 0; i < m; i++ {
			if !alive(i) {
				continue
			}
			hi := lastPull[i].Add(delta)
			gain := countIn(allTimes, lastPull[i], hi) - countIn(perWorker[i], lastPull[i], hi)
			loss := float64(delta) * float64(aliveN-1) / float64(iterSpan[i])
			f += float64(gain) - loss
		}
		evals = append(evals, Candidate{AbortTime: delta, Improvement: f})
		if !best.Enabled || f > best.Improvement {
			best.Enabled = true
			best.Improvement = f
			best.AbortTime = delta
		}
	}
	if best.Improvement <= 0 {
		// Even the best window loses more freshness than it gains; pause
		// speculation for the coming epoch.
		return Tuning{Enabled: false, Candidates: len(candidates)}, nil
	}
	best.RunnerUp = bestOther(evals, best.AbortTime)

	best.Rates = make([]float64, m)
	for i := 0; i < m; i++ {
		if !alive(i) {
			continue // evicted workers keep a zero rate
		}
		best.Rates[i] = float64(best.AbortTime) * float64(aliveN-1) / (float64(iterSpan[i]) * float64(aliveN))
	}
	return best, nil
}

// oracleCandidateWindows produces the distinct gaps between each epoch push and
// each worker's last pull, clamped and optionally sub-sampled. The gain
// estimate u~_i(Delta) is a step function that increments exactly when
// lastPull_i + Delta crosses a push time, while the loss is linear in Delta,
// so the optimum right-aligns some worker's window with some push — i.e. it
// lies in this set. (Paper Algorithm 1 uses pairwise push gaps, which is the
// same set under its pull-follows-push proxy; using push-pull gaps keeps the
// search exact even when the two diverge.)
func oracleCandidateWindows(cfg TunerConfig, pushes []PushRecord, lastPull []time.Time) []time.Duration {
	alive := func(i int) bool { return cfg.Alive == nil || cfg.Alive[i] }
	set := make(map[time.Duration]struct{})
	for _, p := range pushes {
		if p.Worker >= 0 && p.Worker < len(lastPull) && !alive(p.Worker) {
			continue
		}
		for w, lp := range lastPull {
			if !alive(w) {
				continue
			}
			d := p.At.Sub(lp)
			if d <= 0 {
				continue
			}
			if cfg.MinAbort > 0 && d < cfg.MinAbort {
				continue
			}
			if cfg.MaxAbort > 0 && d > cfg.MaxAbort {
				continue
			}
			set[d] = struct{}{}
		}
	}
	out := make([]time.Duration, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if cfg.MaxCandidates > 0 && len(out) > cfg.MaxCandidates {
		sampled := make([]time.Duration, 0, cfg.MaxCandidates)
		step := float64(len(out)-1) / float64(cfg.MaxCandidates-1)
		for i := 0; i < cfg.MaxCandidates; i++ {
			sampled = append(sampled, out[int(float64(i)*step+0.5)])
		}
		out = sampled
	}
	return out
}

// bestOther returns the evaluated window with the highest estimate other
// than the one at chosen, the smallest such window on ties, or the zero
// Candidate when there is no other.
func bestOther(evals []Candidate, chosen time.Duration) Candidate {
	var out Candidate
	have := false
	for _, e := range evals {
		if e.AbortTime != chosen && (!have || e.Improvement > out.Improvement) {
			out, have = e, true
		}
	}
	return out
}

// tuneCase is one generated tuner input.
type tuneCase struct {
	cfg         TunerConfig
	history     []PushRecord
	epochPushes []PushRecord
	lastPull    []time.Time
	iterSpan    []time.Duration
}

// genTuneCase draws a tuner input that leans on the awkward corners: coarse
// timestamps (so pushes and pulls tie), histories from empty to a few hundred
// records, records naming non-members, workers that never notified (zero
// lastPull), Alive masks down to fewer than two members, abort clamps, and
// candidate sub-sampling. mono selects times that carry a monotonic reading
// (derived from time.Now) instead of plain wall-clock times.
func genTuneCase(rng *rand.Rand, mono bool) tuneCase {
	m := 2 + rng.Intn(63)
	tick := []time.Duration{time.Nanosecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}[rng.Intn(4)]
	origin := time.Unix(1_700_000_000, 0)
	if mono {
		origin = time.Now()
	}
	span := time.Duration(1+rng.Intn(400)) * time.Millisecond
	atRandom := func() time.Time {
		return origin.Add(time.Duration(rng.Int63n(int64(span/tick)+1)) * tick)
	}

	c := tuneCase{cfg: TunerConfig{Workers: m}}
	n := []int{0, 1, 2, rng.Intn(40), rng.Intn(400)}[rng.Intn(5)]
	for k := 0; k < n; k++ {
		w := rng.Intn(m)
		if rng.Intn(50) == 0 {
			w = []int{-1, m, m + 7}[rng.Intn(3)]
		}
		c.history = append(c.history, PushRecord{At: atRandom(), Worker: w})
	}
	sort.SliceStable(c.history, func(i, j int) bool { return c.history[i].At.Before(c.history[j].At) })
	if n > 1 && rng.Intn(40) == 0 {
		c.history[0], c.history[n-1] = c.history[n-1], c.history[0] // unsorted: both must refuse
	}
	switch rng.Intn(6) {
	case 0: // nothing pushed this epoch
	case 1: // pushes the retained history has already dropped
		for k := rng.Intn(8); k > 0; k-- {
			c.epochPushes = append(c.epochPushes, PushRecord{At: atRandom(), Worker: rng.Intn(m)})
		}
	default: // the usual shape: the tail of the history
		c.epochPushes = c.history[rng.Intn(n+1):]
	}

	c.lastPull = make([]time.Time, m)
	c.iterSpan = make([]time.Duration, m)
	for i := range c.lastPull {
		switch {
		case rng.Intn(30) == 0: // never notified
		case n > 0 && rng.Intn(2) == 0:
			c.lastPull[i] = c.history[rng.Intn(n)].At // ties with a push
		default:
			c.lastPull[i] = atRandom()
		}
		c.iterSpan[i] = time.Duration(1+rng.Intn(2000)) * time.Millisecond
	}
	if rng.Intn(3) == 0 {
		c.cfg.Alive = make([]bool, m)
		dead := rng.Intn(m + 1)
		if rng.Intn(4) > 0 {
			dead = rng.Intn(m/2 + 1)
		}
		for i := range c.cfg.Alive {
			c.cfg.Alive[i] = true
		}
		for _, i := range rng.Perm(m)[:dead] {
			c.cfg.Alive[i] = false
			if rng.Intn(2) == 0 {
				c.iterSpan[i] = 0 // an evicted worker's span is never read
			}
		}
	}
	if rng.Intn(60) == 0 {
		c.iterSpan[rng.Intn(m)] = 0 // possibly a live worker: both must refuse
	}
	if rng.Intn(2) == 0 {
		c.cfg.MinAbort = time.Duration(rng.Int63n(int64(span)/4 + 1))
	}
	if rng.Intn(2) == 0 {
		c.cfg.MaxAbort = time.Duration(1 + rng.Int63n(int64(span)))
	}
	if rng.Intn(2) == 0 {
		c.cfg.MaxCandidates = 2 + rng.Intn(48)
	}
	return c
}

// TestTuneMatchesOracle requires the worker-major tuner to reproduce the
// reference bit for bit — Improvement and RunnerUp included, so the float
// accumulation order over workers cannot have changed — on generated inputs,
// wall-clock and monotonic. One Tuner serves every case, so nothing a call
// leaves in its buffers may leak into the next.
func TestTuneMatchesOracle(t *testing.T) {
	const cases = 3000
	enabled := 0
	var tu Tuner
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genTuneCase(rng, seed%2 == 1)
		want, wantErr := oracleTune(c.cfg, c.history, c.epochPushes, c.lastPull, c.iterSpan)
		got, gotErr := tu.Tune(c.cfg, c.history, c.epochPushes, c.lastPull, c.iterSpan)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("seed %d: error %v, oracle %v", seed, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (m=%d, %d pushes, %d this epoch):\n got  %+v\n want %+v",
				seed, c.cfg.Workers, len(c.history), len(c.epochPushes), got, want)
		}
		if want.Enabled {
			enabled++
		}
		wantC := oracleCandidateWindows(c.cfg, c.epochPushes, c.lastPull)
		gotC := tu.candidates(c.cfg, c.epochPushes, c.lastPull)
		if len(wantC)+len(gotC) > 0 && !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("seed %d: candidates differ:\n got  %v\n want %v", seed, gotC, wantC)
		}
	}
	// The generator must not drift into inputs the tuner always declines.
	if enabled < cases/10 {
		t.Errorf("only %d of %d generated cases enabled speculation", enabled, cases)
	}
}

// candidateWindowsOracle is the candidate search as it stood before the
// sorted-range rewrite, kept verbatim: every (push, pull) gap is formed and
// clamped, then the list is sorted, de-duplicated and sub-sampled into a
// fresh slice. TestCandidatesMatchOracle compares the Tuner's search with it.
//
// candidateWindowsOracle produces the distinct gaps between each epoch push and
// each worker's last pull, clamped and optionally sub-sampled, ascending. The
// gain estimate u~_i(Delta) is a step function that increments exactly when
// lastPull_i + Delta crosses a push time, while the loss is linear in Delta,
// so the optimum right-aligns some worker's window with some push — i.e. it
// lies in this set. (Paper Algorithm 1 uses pairwise push gaps, which is the
// same set under its pull-follows-push proxy; using push-pull gaps keeps the
// search exact even when the two diverge.)
func candidateWindowsOracle(cfg TunerConfig, pushes []PushRecord, lastPull []time.Time) []time.Duration {
	if len(pushes) == 0 {
		return nil
	}
	alive := func(i int) bool { return cfg.Alive == nil || cfg.Alive[i] }
	base := pushes[0].At
	pulls := make([]time.Duration, 0, len(lastPull))
	for w, lp := range lastPull {
		if alive(w) {
			pulls = append(pulls, lp.Sub(base))
		}
	}
	lo, hi := time.Duration(1), time.Duration(math.MaxInt64)
	if cfg.MinAbort > lo {
		lo = cfg.MinAbort
	}
	if cfg.MaxAbort > 0 {
		hi = cfg.MaxAbort
	}
	var out []time.Duration
	for _, p := range pushes {
		if p.Worker >= 0 && p.Worker < len(lastPull) && !alive(p.Worker) {
			continue
		}
		at := p.At.Sub(base)
		for _, pull := range pulls {
			d := at - pull
			if pull < 0 && (d < at || pull == math.MinInt64) {
				// The pull lies further back than a Duration can span (a
				// worker that never notified has the zero time): the offset
				// or the gap overflowed, so clamp as Time.Sub does.
				d = math.MaxInt64
			}
			if d >= lo && d <= hi {
				out = append(out, d)
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	if cfg.MaxCandidates > 0 && len(out) > cfg.MaxCandidates {
		if cfg.MaxCandidates == 1 {
			// The even spacing below divides by MaxCandidates-1; one
			// candidate is the median.
			return out[len(out)/2 : len(out)/2+1]
		}
		sampled := make([]time.Duration, 0, cfg.MaxCandidates)
		step := float64(len(out)-1) / float64(cfg.MaxCandidates-1)
		for i := 0; i < cfg.MaxCandidates; i++ {
			sampled = append(sampled, out[int(float64(i)*step+0.5)])
		}
		out = sampled
	}
	return out
}

// TestCandidatesMatchOracle requires the sorted-range search to return
// exactly what the all-pairs search returns, on inputs steered into each
// corner the search treats specially; the test fails if a corner was never
// drawn. One Tuner serves every case.
func TestCandidatesMatchOracle(t *testing.T) {
	const cases = 4000
	var tu Tuner
	seen := map[string]int{}
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genTuneCase(rng, seed%2 == 1)
		m := c.cfg.Workers
		c.cfg.MaxCandidates = []int{0, 1, 2, 3 + rng.Intn(60)}[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			c.cfg.MaxAbort = 0
		}
		if len(c.epochPushes) > 0 {
			first := c.epochPushes[0].At
			for i := range c.lastPull {
				switch rng.Intn(12) {
				case 0: // never notified: the zero time
					c.lastPull[i] = time.Time{}
				case 1: // so far back that gaps to later pushes overflow
					c.lastPull[i] = first.Add(-math.MaxInt64 + time.Duration(rng.Int63n(int64(time.Second))))
				case 2, 3: // after the pushes: they come before every pull
					c.lastPull[i] = first.Add(time.Duration(rng.Int63n(int64(time.Second))))
				}
			}
		}
		want := candidateWindowsOracle(c.cfg, c.epochPushes, c.lastPull)
		got := tu.candidates(c.cfg, c.epochPushes, c.lastPull)
		if len(want)+len(got) > 0 && !slices.Equal(got, want) {
			t.Fatalf("seed %d (m=%d, %d epoch pushes, cfg %+v):\n got  %v\n want %v",
				seed, m, len(c.epochPushes), c.cfg, got, want)
		}

		if len(c.epochPushes) == 0 {
			continue
		}
		base := c.epochPushes[0].At
		earliestPush, gaps, distinct := c.epochPushes[0].At, 0, map[time.Duration]bool{}
		for _, p := range c.epochPushes {
			if p.At.Before(earliestPush) {
				earliestPush = p.At
			}
		}
		allLater := true
		for i, lp := range c.lastPull {
			if c.cfg.Alive != nil && !c.cfg.Alive[i] {
				seen["evicted"]++
				continue
			}
			if lp.IsZero() {
				seen["zero-time pull"]++
			} else if lp.Sub(base) < -math.MaxInt64/2 {
				seen["overflowing pull"]++
			}
			allLater = allLater && !lp.Before(earliestPush)
			for _, p := range c.epochPushes {
				if d := p.At.Sub(lp); d > 0 {
					gaps++
					distinct[d] = true
				}
			}
		}
		if allLater {
			seen["pushes before every pull"]++
		}
		if gaps > len(distinct) {
			seen["duplicate gaps"]++
		}
		if c.cfg.MaxAbort == 0 && len(want) > 0 && want[len(want)-1] == math.MaxInt64 {
			seen["MaxAbort 0, clamped gap"]++
		}
		if len(want) > 0 {
			seen[fmt.Sprintf("MaxCandidates %d", min(c.cfg.MaxCandidates, 3))]++
		}
	}
	for _, corner := range []string{"evicted", "zero-time pull", "overflowing pull", "pushes before every pull",
		"duplicate gaps", "MaxAbort 0, clamped gap", "MaxCandidates 0", "MaxCandidates 1", "MaxCandidates 2", "MaxCandidates 3"} {
		if seen[corner] == 0 {
			t.Errorf("no generated case covered %q", corner)
		}
	}
}

// genFleetCase draws a retune at sim_fleet's scale: m = 512 workers, rounds
// of paced pushes on a 1 µs tick (so pushes tie, and pulls tie with them),
// the last round as the epoch, each worker's last push as its pull, a quarter
// or fewer of the workers evicted, and MaxCandidates sub-sampling an abort
// range up to two iterations wide. With few candidates over that range, each
// step from one candidate to the next crosses many pushes for every worker.
func genFleetCase(rng *rand.Rand, rounds int) tuneCase {
	const m = 512
	const iterTime = 100 * time.Millisecond
	start := time.Unix(1_700_000_000, 0)
	c := tuneCase{cfg: TunerConfig{Workers: m}, lastPull: make([]time.Time, m), iterSpan: make([]time.Duration, m)}
	for round := 0; round < rounds; round++ {
		for _, w := range rng.Perm(m) {
			at := start.Add(time.Duration(round)*iterTime + time.Duration(rng.Int63n(int64(iterTime/time.Microsecond)))*time.Microsecond)
			c.history = append(c.history, PushRecord{At: at, Worker: w})
		}
	}
	sort.SliceStable(c.history, func(i, j int) bool { return c.history[i].At.Before(c.history[j].At) })
	c.epochPushes = c.history[(rounds-1)*m:]
	for _, p := range c.history {
		c.lastPull[p.Worker] = p.At
	}
	for i := range c.iterSpan {
		c.iterSpan[i] = iterTime + time.Duration(rng.Int63n(int64(iterTime)))
	}
	c.cfg.Alive = make([]bool, m)
	for i := range c.cfg.Alive {
		c.cfg.Alive[i] = true
	}
	for _, i := range rng.Perm(m)[:1+rng.Intn(m/4)] {
		c.cfg.Alive[i] = false
	}
	c.cfg.MinAbort = time.Duration(1+rng.Intn(4)) * time.Millisecond
	c.cfg.MaxAbort = time.Duration(1+rng.Intn(4)) * iterTime / 2
	c.cfg.MaxCandidates = []int{512, 64, 16, 5}[rng.Intn(4)]
	return c
}

// maxCrossing returns the most pushes any live worker's window gains between
// two consecutive candidates: the steps the tuner's upper cursors take in one
// go.
func maxCrossing(c tuneCase, cands []time.Duration) int {
	base := c.epochPushes[0].At
	var all []time.Duration
	for _, p := range c.history {
		if c.cfg.Alive[p.Worker] {
			all = append(all, p.At.Sub(base))
		}
	}
	upTo := func(x time.Duration) int { return sort.Search(len(all), func(k int) bool { return all[k] > x }) }
	most := 0
	for i, lp := range c.lastPull {
		if !c.cfg.Alive[i] {
			continue
		}
		pull := lp.Sub(base)
		for j := 1; j < len(cands); j++ {
			most = max(most, upTo(pull+cands[j])-upTo(pull+cands[j-1]))
		}
	}
	return most
}

// TestFleetTuneMatchesOracle is TestTuneMatchesOracle at sim_fleet's m = 512,
// with evicted workers and sub-sampled candidates, including windows whose
// consecutive candidates lie more than a hundred pushes apart. The whole
// Tuning, RunnerUp included, must equal the reference's. One Tuner serves
// every case.
func TestFleetTuneMatchesOracle(t *testing.T) {
	var tu Tuner
	enabled, wide := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := genFleetCase(rng, 32)
		if seed < 2 {
			c.cfg.MaxCandidates = 5 // so that some case spaces its candidates widely
		}
		want, err := oracleTune(c.cfg, c.history, c.epochPushes, c.lastPull, c.iterSpan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tu.Tune(c.cfg, c.history, c.epochPushes, c.lastPull, c.iterSpan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (cfg MinAbort %v MaxAbort %v MaxCandidates %d):\n got  %+v\n want %+v",
				seed, c.cfg.MinAbort, c.cfg.MaxAbort, c.cfg.MaxCandidates, got, want)
		}
		if want.Enabled {
			enabled++
		}
		cands := tu.candidates(c.cfg, c.epochPushes, c.lastPull)
		if !slices.Equal(cands, oracleCandidateWindows(c.cfg, c.epochPushes, c.lastPull)) {
			t.Fatalf("seed %d: candidates differ from the oracle's", seed)
		}
		if maxCrossing(c, cands) >= 100 {
			wide++
		}
	}
	if enabled == 0 || wide == 0 {
		t.Errorf("%d cases enabled speculation and %d crossed 100 pushes in a step; want some of each", enabled, wide)
	}
}
