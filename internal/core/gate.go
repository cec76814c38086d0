package core

import (
	"math"
	"slices"

	"specsync/internal/msg"
	"specsync/internal/node"
)

// The gate (scheme.Gate) is the scheduler's one synchronization service.
// Each worker's clock is its completed-iteration count (notifyCount); the
// released clock R is the ⌈β·alive⌉-th highest live clock and never
// regresses, and a worker may start iteration k once k <= R + s. BSP, SSP,
// PSP and pSSP differ only in (s, β); ASP's unbounded gate releases nothing.

// gateClock is the clock the gate may release: the ⌈β·alive⌉-th highest
// live clock, which at β = 1 is the slowest live member's. That case, BSP's
// and SSP's, is one O(m) pass; a quorum below 1 sorts the live clocks.
func (s *Scheduler) gateClock() int64 {
	live := s.clocks[:0]
	slowest := int64(math.MaxInt64)
	for i, c := range s.notifyCount {
		if s.alive[i] {
			live = append(live, c)
			slowest = min(slowest, c)
		}
	}
	s.clocks = live
	if len(live) == 0 {
		return s.released
	}
	// The epsilon keeps a product like 0.7·10 from rounding up past 7.
	k := int(math.Ceil(s.cur.Quorum*float64(len(live)) - 1e-9))
	k = max(1, min(k, len(live)))
	if k == len(live) {
		return slowest
	}
	slices.Sort(live)
	return live[len(live)-k]
}

// advanceGate raises the released clock to gateClock and broadcasts it when
// it moves, reporting whether it did. An unbounded gate releases nothing, so
// ASP's notify path does no gate work.
func (s *Scheduler) advanceGate() bool {
	if s.cur.Unbounded() {
		return false
	}
	r := s.gateClock()
	if r <= s.released {
		return false
	}
	s.released = r
	s.cfg.Obs.BarrierRelease(s.ctx.Now(), r, s.m)
	s.release = msg.Release{Clock: r}
	for w := 0; w < s.m; w++ {
		s.ctx.Send(node.WorkerID(w), &s.release)
	}
	return true
}

// resendRelease resends the released clock to worker i, about to start
// iteration k, when that clock admits k. A worker that missed a broadcast —
// a cold restart, a scheduler restart, a partition — would otherwise wait
// for a release that has already gone out.
func (s *Scheduler) resendRelease(i int, k int64) {
	if s.cur.Unbounded() || s.released == 0 || s.released+int64(s.cur.Bound) < k {
		return
	}
	s.release = msg.Release{Clock: s.released}
	s.ctx.Send(node.WorkerID(i), &s.release)
}
