// Package core implements the paper's primary contribution: the SpecSync
// centralized scheduler (Algorithm 2, scheduler side) and the adaptive
// hyperparameter tuner (Algorithm 1) that maximizes the estimated freshness
// improvement of Eq. (7).
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// PushRecord is one observed push (notify) event.
type PushRecord struct {
	At     time.Time
	Worker int
}

// TunerConfig bounds the tuner's search.
type TunerConfig struct {
	// Workers is the cluster size m.
	Workers int
	// MinAbort clamps the smallest usable ABORT_TIME. Below ~2x network
	// latency a speculation window cannot observe anything; zero means no
	// floor.
	MinAbort time.Duration
	// MaxAbort clamps the largest candidate. Zero means no ceiling.
	MaxAbort time.Duration
	// MaxCandidates caps the candidate set by even sub-sampling, bounding
	// tuning cost on epochs with many pushes. Zero means unlimited.
	MaxCandidates int
	// Alive[i], when non-nil, marks which workers are current cluster
	// members. Evicted workers contribute nothing: their stale pulls seed no
	// candidate windows, their historical pushes are not counted as expected
	// gains, and their rates come back zero. Nil means all Workers alive.
	Alive []bool
}

// Tuning is the tuner's output: the new hyperparameters for one epoch.
type Tuning struct {
	// Enabled is false when no candidate yields a positive estimated
	// freshness improvement; speculation pauses for the epoch.
	Enabled bool
	// AbortTime is the chosen speculation window Delta*.
	AbortTime time.Duration
	// Rates[i] is worker i's ABORT_RATE: Delta*(m-1) / (T_i * m). A worker
	// aborts when the number of peer pushes observed in its window reaches
	// m*Rates[i] (paper Algorithm 2 line 9).
	Rates []float64
	// Improvement is the estimated overall freshness improvement F~(Delta*)
	// of Eq. (7) at the chosen window.
	Improvement float64
	// Candidates is the number of distinct windows evaluated.
	Candidates int
	// RunnerUp is the best evaluated window other than AbortTime (the
	// smallest one on ties), with its Eq. (7) estimate. It is the zero
	// Candidate unless Enabled and at least two windows were evaluated.
	RunnerUp Candidate
}

// Candidate is one evaluated speculation window and its Eq. (7) estimate.
type Candidate struct {
	AbortTime   time.Duration
	Improvement float64
}

// Tune runs Algorithm 1 on a fresh Tuner; see (*Tuner).Tune.
func Tune(cfg TunerConfig, history, epochPushes []PushRecord, lastPull []time.Time, iterSpan []time.Duration) (Tuning, error) {
	var t Tuner
	return t.Tune(cfg, history, epochPushes, lastPull, iterSpan)
}

// Tuner runs Algorithm 1 on buffers it keeps between calls: once they have
// grown to the cluster's size, a retune allocates nothing but the result's
// Rates. The zero value is ready to use; a Tuner is not safe for concurrent
// use.
type Tuner struct {
	pulls  []time.Duration // live workers' last pulls, ascending
	ats    []time.Duration // live epoch pushes, ascending
	gaps   []time.Duration // candidate windows
	spare  []time.Duration // the radix sort's other half
	all    []time.Duration // every counted push, ascending
	own    []time.Duration // the same pushes grouped by member
	ownEnd []int           // member i's run in own ends at ownEnd[i]
	f      []float64       // f[j]: Eq. 7 at candidate j, summed over workers so far
	loss   []float64       // loss[j]: candidate j's loss numerator Delta_j (m-1)
}

// Tune runs Algorithm 1. Inputs:
//
//   - history: every retained push, sorted by time ascending. Windows are
//     counted against this full list so that windows extending past the
//     epoch boundary still see the pushes that landed there.
//   - epochPushes: the pushes of the just-finished epoch; candidate windows
//     are the gaps between them and the workers' last pulls (see
//     candidates).
//   - lastPull[i]: worker i's last pull time in the finished epoch. The
//     scheduler uses the notify timestamp as its proxy, because a worker
//     pulls immediately after pushing (Algorithm 2 worker lines 8-9).
//   - iterSpan[i]: worker i's estimated iteration span T_i.
//
// The freshness gain estimate is u~_i(Delta) = number of pushes by peers in
// (lastPull_i, lastPull_i + Delta] (Eq. 5, using the previous epoch as the
// predictor), and the loss estimate is Delta * (m-1) / T_i (Eq. 6).
//
// Internally every time is an offset from the first epoch push (At.Sub, so
// monotonic-clock readings are honoured the same way Before/After honour
// them). Times are assumed to be either all wall-clock or all carrying
// monotonic readings of one process, which is what a node.Context hands out.
// The inputs are only read; the result shares no memory with the Tuner.
func (t *Tuner) Tune(cfg TunerConfig, history, epochPushes []PushRecord, lastPull []time.Time, iterSpan []time.Duration) (Tuning, error) {
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
	for k := 1; k < len(history); k++ {
		if history[k].At.Before(history[k-1].At) {
			return Tuning{}, fmt.Errorf("core: history not sorted by time")
		}
	}

	candidates := t.candidates(cfg, epochPushes, lastPull)
	if len(candidates) == 0 {
		return Tuning{Enabled: false, Candidates: 0}, nil
	}

	// Index pushes for window counting, as ascending offsets: all of them,
	// and each member's own, grouped by a counting sort (ownEnd[i+1] counts
	// member i's, then becomes the end of its run). Pushes from evicted
	// workers predict no future gain and are excluded.
	base := epochPushes[0].At
	t.ownEnd = resize(t.ownEnd, m+1)
	clear(t.ownEnd)
	t.all = reserve(t.all, len(history))
	for _, p := range history {
		member := p.Worker >= 0 && p.Worker < m
		if member && !alive(p.Worker) {
			continue
		}
		t.all = append(t.all, p.At.Sub(base))
		if member {
			t.ownEnd[p.Worker+1]++
		}
	}
	for i := 1; i <= m; i++ {
		t.ownEnd[i] += t.ownEnd[i-1]
	}
	t.own = resize(t.own, t.ownEnd[m])
	next := t.ownEnd[:m] // next[i]: where member i's next push goes
	k := 0
	for _, p := range history {
		member := p.Worker >= 0 && p.Worker < m
		if member && !alive(p.Worker) {
			continue
		}
		if member {
			t.own[next[p.Worker]] = t.all[k]
			next[p.Worker]++
		}
		k++
	}
	// next[i] is now the end of member i's run and ownEnd[m] the end of all.

	// Eq. 7, worker-major: each live worker, in worker order, adds its term
	// to every candidate's f[j], so each f[j] still sums its terms in worker
	// order. The window's lower end — the pushes at or before lastPull_i — does
	// not depend on Delta and is found once; the upper ends only move forward,
	// because candidates ascend.
	t.f = resize(t.f, len(candidates))
	clear(t.f)
	t.loss = resize(t.loss, len(candidates))
	for j, delta := range candidates {
		t.loss[j] = float64(delta) * float64(aliveN-1)
	}
	all, f, loss := t.all, t.f[:len(candidates)], t.loss[:len(candidates)]
	for i := 0; i < m; i++ {
		if !alive(i) {
			continue
		}
		start := 0
		if i > 0 {
			start = t.ownEnd[i-1]
		}
		own := t.own[start:t.ownEnd[i]]
		pull, span := lastPull[i].Sub(base), float64(iterSpan[i])
		allHi := sort.Search(len(all), func(k int) bool { return all[k] > pull })
		ownHi := sort.Search(len(own), func(k int) bool { return own[k] > pull })
		allLo, ownLo := allHi, ownHi
		// A pull too far before base for a Duration (a live worker that never
		// notified has the zero time) has its offset clamped to math.MinInt64,
		// and pull + delta is then no window end: the candidate math.MaxInt64
		// would end at offset -1 and count every push before the epoch. Such a
		// worker's window ends come from time arithmetic instead.
		far := pull == math.MinInt64
		for j, delta := range candidates {
			hi := pull + delta
			switch {
			case far:
				hi = lastPull[i].Add(delta).Sub(base)
			case hi < pull:
				hi = math.MaxInt64
			}
			for allHi < len(all) && all[allHi] <= hi {
				allHi++
			}
			for ownHi < len(own) && own[ownHi] <= hi {
				ownHi++
			}
			gain := (allHi - allLo) - (ownHi - ownLo)
			f[j] += float64(gain) - loss[j]/span
		}
	}

	best := Tuning{Enabled: false, Candidates: len(candidates)}
	var second Candidate
	haveSecond := false
	for j, fj := range f {
		delta := candidates[j]
		switch {
		case !best.Enabled || fj > best.Improvement:
			if best.Enabled {
				second, haveSecond = Candidate{AbortTime: best.AbortTime, Improvement: best.Improvement}, true
			}
			best.Enabled = true
			best.Improvement = fj
			best.AbortTime = delta
		case !haveSecond || fj > second.Improvement:
			second, haveSecond = Candidate{AbortTime: delta, Improvement: fj}, true
		}
	}
	if best.Improvement <= 0 {
		// Even the best window loses more freshness than it gains; pause
		// speculation for the coming epoch.
		return Tuning{Enabled: false, Candidates: len(candidates)}, nil
	}
	best.RunnerUp = second

	best.Rates = make([]float64, m)
	for i := 0; i < m; i++ {
		if !alive(i) {
			continue // evicted workers keep a zero rate
		}
		best.Rates[i] = float64(best.AbortTime) * float64(aliveN-1) / (float64(iterSpan[i]) * float64(aliveN))
	}
	return best, nil
}

// resize returns s with length n, reallocating only when it lacks capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s emptied, with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// candidates produces the distinct gaps between each live epoch push and each
// live worker's last pull, clamped and optionally sub-sampled, ascending, in
// the Tuner's buffer (valid until the next call). The gain estimate
// u~_i(Delta) is a step function that increments exactly when lastPull_i +
// Delta crosses a push time, while the loss is linear in Delta, so the
// optimum right-aligns some worker's window with some push — i.e. it lies in
// this set. (Paper Algorithm 1 uses pairwise push gaps, which is the same set
// under its pull-follows-push proxy; using push-pull gaps keeps the search
// exact even when the two diverge.)
//
// A gap at − pull lies in the clamps [lo, hi] exactly when the pull lies in
// [at − hi, at − lo]. Both ends rise with at, so with pushes and pulls sorted
// the qualifying pulls of successive pushes form runs found by two
// forward-only cursors, and only gaps that survive the clamps are ever
// generated. A pull lying further back than a Duration can span (a worker
// that never notified has the zero time) is clamped the way Time.Sub clamps:
// its gap is math.MaxInt64, a candidate only when there is no ceiling. Push
// offsets are notify times, so they do not overflow.
func (t *Tuner) candidates(cfg TunerConfig, pushes []PushRecord, lastPull []time.Time) []time.Duration {
	if len(pushes) == 0 {
		return nil
	}
	alive := func(i int) bool { return cfg.Alive == nil || cfg.Alive[i] }
	lo, hi := time.Duration(1), time.Duration(math.MaxInt64)
	if cfg.MinAbort > lo {
		lo = cfg.MinAbort
	}
	if cfg.MaxAbort > 0 {
		hi = cfg.MaxAbort
	}
	if lo > hi {
		return nil
	}
	base := pushes[0].At
	farPull := false // a pull Sub clamped to math.MinInt64
	t.pulls = reserve(t.pulls, len(lastPull))
	for w, lp := range lastPull {
		if !alive(w) {
			continue
		}
		if p := lp.Sub(base); p == math.MinInt64 {
			farPull = true
		} else {
			t.pulls = append(t.pulls, p)
		}
	}
	t.ats = reserve(t.ats, len(pushes))
	for _, p := range pushes {
		if p.Worker >= 0 && p.Worker < len(lastPull) && !alive(p.Worker) {
			continue
		}
		t.ats = append(t.ats, p.At.Sub(base))
	}
	if len(t.ats) == 0 {
		return nil
	}
	slices.Sort(t.pulls)
	slices.Sort(t.ats)

	overflow := false
	if hi == math.MaxInt64 {
		// Overflowing gaps clamp to the one value math.MaxInt64; the latest
		// push and the earliest pull overflow if any pair does.
		last, pulls := t.ats[len(t.ats)-1], t.pulls
		overflow = farPull || len(pulls) > 0 && pulls[0] < 0 && last-pulls[0] < last
	}
	// One walk sizes the gap buffer, a second fills it.
	n := 0
	if overflow {
		n++
	}
	t.runs(lo, hi, func(_ time.Duration, run []time.Duration) { n += len(run) })
	t.gaps, t.spare = resize(t.gaps, n)[:0], resize(t.spare, n)
	t.runs(lo, hi, func(at time.Duration, run []time.Duration) {
		for _, p := range run {
			t.gaps = append(t.gaps, at-p)
		}
	})
	if overflow {
		t.gaps = append(t.gaps, math.MaxInt64)
	}
	t.gaps, t.spare = radixSort(t.gaps, t.spare)
	out := slices.Compact(t.gaps)
	if n := cfg.MaxCandidates; n > 0 && len(out) > n {
		if n == 1 {
			// The even spacing below divides by MaxCandidates-1; one
			// candidate is the median.
			return out[len(out)/2 : len(out)/2+1]
		}
		// Sub-sample in place: the i-th pick reads index >= i, which no
		// earlier pick has written.
		step := float64(len(out)-1) / float64(n-1)
		for i := 0; i < n; i++ {
			out[i] = out[int(float64(i)*step+0.5)]
		}
		out = out[:n]
	}
	return out
}

// runs calls f with each live epoch push (t.ats, ascending) and the run of
// live pulls (t.pulls, ascending) in [at − hi, at − lo]. Both ends of that
// interval rise with at, so the run's two cursors only move forward.
func (t *Tuner) runs(lo, hi time.Duration, f func(at time.Duration, run []time.Duration)) {
	pulls := t.pulls
	first, end := 0, 0
	for _, at := range t.ats {
		from, to := subFloor(at, hi), subFloor(at, lo)
		for first < len(pulls) && pulls[first] < from {
			first++
		}
		for end < len(pulls) && pulls[end] <= to {
			end++
		}
		f(at, pulls[first:max(first, end)])
	}
}

// subFloor returns a − b for b >= 0, or math.MinInt64 where that underflows.
func subFloor(a, b time.Duration) time.Duration {
	if a < math.MinInt64+b {
		return math.MinInt64
	}
	return a - b
}

// radixSort sorts the positive durations a ascending with an LSD radix sort
// over d − min(a), one byte per pass and only as many passes as max − min has
// bytes, ping-ponging with spare (len(a) long). It returns the sorted slice
// and the other buffer.
func radixSort(a, spare []time.Duration) (sorted, other []time.Duration) {
	if len(a) < 2 {
		return a, spare
	}
	lo, hi := a[0], a[0]
	for _, d := range a {
		lo, hi = min(lo, d), max(hi, d)
	}
	span := uint64(hi - lo)
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int
		for _, d := range a {
			count[byte(uint64(d-lo)>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, d := range a {
			b := byte(uint64(d-lo) >> shift)
			spare[count[b]] = d
			count[b]++
		}
		a, spare = spare, a
	}
	return a, spare
}
