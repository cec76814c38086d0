// Package core implements the paper's primary contribution: the SpecSync
// centralized scheduler (Algorithm 2, scheduler side) and the adaptive
// hyperparameter tuner (Algorithm 1) that maximizes the estimated freshness
// improvement of Eq. (7).
package core

import (
	"fmt"
	"math"
	"slices"
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
	// MaxAbort clamps the largest candidate. The paper's grid search uses
	// half of the iteration time as its upper bound; the cluster harness
	// passes the same here. Zero means no ceiling.
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
}

// Tune runs Algorithm 1. Inputs:
//
//   - history: every retained push, sorted by time ascending. Windows are
//     counted against this full list so that windows extending past the
//     epoch boundary still see the pushes that landed there.
//   - epochPushes: the pushes of the just-finished epoch; candidate windows
//     are the pairwise time gaps between them (the paper's observation that
//     the optimum right-aligns a window with some push).
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
func Tune(cfg TunerConfig, history, epochPushes []PushRecord, lastPull []time.Time, iterSpan []time.Duration) (Tuning, error) {
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

	candidates := candidateWindows(cfg, epochPushes, lastPull)
	if len(candidates) == 0 {
		return Tuning{Enabled: false, Candidates: 0}, nil
	}

	// Index pushes for window counting, as ascending offsets: all of them,
	// and each member's own. Pushes from evicted workers predict no future
	// gain and are excluded.
	base := epochPushes[0].At
	all := make([]time.Duration, 0, len(history))
	own := make([][]time.Duration, m)
	for _, p := range history {
		member := p.Worker >= 0 && p.Worker < m
		if member && !alive(p.Worker) {
			continue
		}
		at := p.At.Sub(base)
		all = append(all, at)
		if member {
			own[p.Worker] = append(own[p.Worker], at)
		}
	}

	// One cursor per live worker, in worker order (the order the float sum
	// below accumulates in). The window's lower end — the pushes at or before
	// lastPull_i — does not depend on Delta and is located once; the upper
	// end only ever moves forward, because candidates ascend.
	type cursor struct {
		pull         time.Duration
		span         float64
		own          []time.Duration
		allLo, allHi int
		ownLo, ownHi int
	}
	cursors := make([]cursor, 0, aliveN)
	for i := 0; i < m; i++ {
		if !alive(i) {
			continue
		}
		c := cursor{pull: lastPull[i].Sub(base), span: float64(iterSpan[i]), own: own[i]}
		c.allLo = advance(all, 0, c.pull)
		c.ownLo = advance(c.own, 0, c.pull)
		c.allHi, c.ownHi = c.allLo, c.ownLo
		cursors = append(cursors, c)
	}

	best := Tuning{Enabled: false, Candidates: len(candidates)}
	for _, delta := range candidates {
		lossNum := float64(delta) * float64(aliveN-1)
		var f float64
		for k := range cursors {
			c := &cursors[k]
			hi := c.pull + delta
			if hi < c.pull {
				hi = math.MaxInt64
			}
			c.allHi = advance(all, c.allHi, hi)
			c.ownHi = advance(c.own, c.ownHi, hi)
			gain := (c.allHi - c.allLo) - (c.ownHi - c.ownLo)
			f += float64(gain) - lossNum/c.span
		}
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

	best.Rates = make([]float64, m)
	for i := 0; i < m; i++ {
		if !alive(i) {
			continue // evicted workers keep a zero rate
		}
		best.Rates[i] = float64(best.AbortTime) * float64(aliveN-1) / (float64(iterSpan[i]) * float64(aliveN))
	}
	return best, nil
}

// advance returns the first index k >= from with ts[k] > x, given ascending
// ts and everything before from already <= x. A step that crosses no push —
// the common one — costs a comparison, inlined at the call site.
func advance(ts []time.Duration, from int, x time.Duration) int {
	if from == len(ts) || ts[from] > x {
		return from
	}
	return gallop(ts, from, x)
}

// gallop is advance for ts[from] <= x: it doubles its stride until it
// overshoots, then bisects the last stride, so a jump over n entries costs
// O(log n).
func gallop(ts []time.Duration, from int, x time.Duration) int {
	step := 1
	for from+step < len(ts) && ts[from+step] <= x {
		from += step
		step *= 2
	}
	lo, hi := from+1, min(from+step, len(ts))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// candidateWindows produces the distinct gaps between each epoch push and
// each worker's last pull, clamped and optionally sub-sampled, ascending. The
// gain estimate u~_i(Delta) is a step function that increments exactly when
// lastPull_i + Delta crosses a push time, while the loss is linear in Delta,
// so the optimum right-aligns some worker's window with some push — i.e. it
// lies in this set. (Paper Algorithm 1 uses pairwise push gaps, which is the
// same set under its pull-follows-push proxy; using push-pull gaps keeps the
// search exact even when the two diverge.)
func candidateWindows(cfg TunerConfig, pushes []PushRecord, lastPull []time.Time) []time.Duration {
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
