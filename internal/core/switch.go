package core

import (
	"fmt"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// Scheduler-side gate policies (scheme.Policy): Sync-Switch, ABS and the
// meta policy only move the gate. Every decision point is an epoch boundary,
// and every move follows the elastic migration's freeze→commit discipline in
// miniature:
//
//  1. Freeze: under an incoming bound of 0 the open speculation windows
//     close — nothing is stale behind a barrier.
//  2. Rebuild: the released clock is recomputed from the live clocks under
//     the incoming quorum, never regressing, exactly the way the
//     post-restart StateReport rebuild recomputes it.
//  3. Commit: one SchemeSwitch broadcast carries the new gate and the
//     released clock. Each worker applies it at its own iteration boundary —
//     a worker parked at the outgoing gate re-evaluates immediately, and
//     in-flight pushes are untouched because pushes never depended on the
//     gate.
//
// Switches are keyed by a monotonically increasing scheme epoch so a stale
// or duplicated broadcast (restart re-announce, readmission resend) can
// never roll a worker back.

// The meta policy's hysteresis, three times over: a condition must hold for
// metaHoldEpochs consecutive evaluations before it acts, after any switch
// the policy waits metaMinDwell of virtual time before moving again, and
// recovery needs the worst slowdown score under metaRecoverScore, strictly
// tighter than the straggler detector's flag threshold (1.5), so a
// borderline fleet never flaps. The tighter recover band exists because
// loosening masks its own signal: under the loose gate a genuine straggler
// no longer contends with the healthy majority at the servers, and its score
// settles just below the flag threshold; recovering on the detector's bare
// clear would re-expose it and oscillate.
const (
	metaSustained    = 1 // sustained stragglers that loosen the gate
	metaHoldEpochs   = 2
	metaMinDwell     = 10 * time.Second
	metaRecoverScore = 1.25
)

// dynamic reports whether this run can move its gate mid-flight.
func (s *Scheduler) dynamic() bool { return s.cfg.Scheme.Policy != scheme.PolicyNone }

// maybeSwitch is called at every epoch boundary; it runs the gate policy,
// issuing at most one switch.
func (s *Scheduler) maybeSwitch(now time.Time) {
	epoch := s.epoch.Load()
	switch s.cfg.Scheme.Policy {
	case scheme.PolicySyncSwitch:
		if !s.cur.Unbounded() && epoch >= int64(s.cfg.Scheme.SwitchAt) {
			s.switchTo(scheme.Gate{Bound: scheme.Unbounded, Quorum: 1},
				fmt.Sprintf("sync-switch: scheduled %s→ASP handover at epoch %d", s.cur, epoch), now)
		}
	case scheme.PolicyABS:
		if bound := s.absBound(); bound != s.cur.Bound {
			g := s.cur
			g.Bound = bound
			s.switchTo(g,
				fmt.Sprintf("abs: push-arrival spread re-derived bound %d→%d at epoch %d", s.cur.Bound, bound, epoch), now)
		}
	case scheme.PolicyMeta:
		flagged, sustained, _, worst := s.cfg.Obs.StragglerCounts()
		initial := s.cfg.Scheme.Gate()
		loose := s.cur != initial
		dwelt := s.switches.Load() == 0 || now.Sub(s.lastSwitchAt) >= metaMinDwell
		if !metaStep(&s.metaStreak, loose, dwelt, flagged, sustained, worst) {
			return
		}
		if loose {
			s.switchTo(initial, fmt.Sprintf("meta: stragglers recovered → %s", initial), now)
		} else {
			g := initial.Loosened()
			s.switchTo(g, fmt.Sprintf("meta: %d sustained straggler(s) → %s", sustained, g), now)
		}
	}
}

// metaStep is the meta policy at one epoch boundary. loose says whether the
// gate is loosened now and dwelt whether the dwell since the last switch has
// been served; flagged, sustained and worst are the straggler detector's
// counts and worst slowdown score. It keeps the pending condition's streak
// in *streak and reports whether to flip the gate.
func metaStep(streak *int, loose, dwelt bool, flagged, sustained int, worst float64) bool {
	// Loosening needs a sustained flag; recovering needs the fleet
	// convincingly homogeneous — no flags at any level and the worst score
	// inside the dead band.
	want := loose
	if !loose {
		want = sustained >= metaSustained
	} else if sustained == 0 && flagged == 0 && worst < metaRecoverScore {
		want = false
	}
	if want == loose {
		*streak = 0
		return false
	}
	*streak++
	if *streak < metaHoldEpochs {
		return false
	}
	if !dwelt {
		// Keep the streak so the switch fires as soon as the dwell expires
		// (if the condition still holds).
		*streak--
		return false
	}
	*streak = 0
	return true
}

// absBound re-derives the ABS staleness bound from the push-arrival spread
// observed over the finished epoch: the ratio between the slowest and the
// median live member's work span (spans are themselves EWMAs of push-arrival
// intervals). A homogeneous fleet rounds to the minimum bound (near-BSP); a
// k-times straggler loosens the bound to ≈k so the healthy majority can run
// ahead instead of blocking on the gate every iteration.
func (s *Scheduler) absBound() int {
	spans := make([]float64, 0, s.m)
	slowest := 0.0
	for i := 0; i < s.m; i++ {
		if !s.alive[i] {
			continue
		}
		sp := float64(s.spanFor(i))
		if sp <= 0 {
			continue
		}
		spans = append(spans, sp)
		if sp > slowest {
			slowest = sp
		}
	}
	if len(spans) == 0 {
		return s.cur.Bound
	}
	median := medianOf(spans)
	if median <= 0 {
		return s.cur.Bound
	}
	return min(max(int(slowest/median+0.5), scheme.ABSMinBound), scheme.ABSMaxBound)
}

// spanFor returns the best available span estimate for worker i: the
// worker-reported work span (gate-independent) when this run tracks spans,
// falling back to the notify-interval EWMA before the first report lands.
func (s *Scheduler) spanFor(i int) time.Duration {
	if s.workSpan != nil && s.workSpan[i] > 0 {
		return s.workSpan[i]
	}
	return s.spanEWMA[i]
}

func medianOf(vs []float64) float64 {
	// Insertion sort: the slice is small (≤ fleet size) and reused nowhere.
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	return vs[len(vs)/2]
}

// switchTo moves the fleet onto gate g: freeze, rebuild, and commit with one
// SchemeSwitch broadcast.
func (s *Scheduler) switchTo(g scheme.Gate, reason string, now time.Time) {
	if g == s.cur {
		return
	}
	from := s.cur.String()
	s.schemeEpoch++
	s.cur = g
	s.lastSwitchAt = now
	s.lastSwitchWhy = reason
	s.switches.Add(1)

	// Freeze.
	if g.Bound == 0 {
		for i := range s.windows {
			s.closeWindow(i)
		}
	}
	// Rebuild.
	if !g.Unbounded() {
		s.released = max(s.released, s.gateClock())
	}

	s.cfg.Obs.SchemeSwitch(now, s.schemeEpoch, from, g.String(), reason)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: trace.SchedulerNode, Kind: trace.KindSchemeSwitch, Iter: s.schemeEpoch, Value: int64(g.Base())})
	}
	s.ctx.Logf("scheduler: scheme switch #%d %s → %s (%s)", s.schemeEpoch, from, g, reason)

	// Commit.
	for w := 0; w < s.m; w++ {
		s.ctx.Send(node.WorkerID(w), s.schemeMsg(now))
	}
}

// schemeMsg encodes the active gate and the released clock for broadcast or
// for a targeted resend to a joiner or readmitted worker.
func (s *Scheduler) schemeMsg(now time.Time) *msg.SchemeSwitch {
	return &msg.SchemeSwitch{
		Epoch:    s.schemeEpoch,
		Bound:    int64(s.cur.Bound),
		Quorum:   s.cur.Quorum,
		Released: s.released,
		Reason:   s.lastSwitchWhy,
		At:       now.Sub(time.Unix(0, 0)),
	}
}

// resendScheme brings one worker (a joiner, a readmitted crasher) up to the
// current scheme epoch. Workers ignore epochs they have already applied.
func (s *Scheduler) resendScheme(i int, now time.Time) {
	if !s.dynamic() || s.schemeEpoch == 0 {
		return
	}
	s.ctx.Send(node.WorkerID(i), s.schemeMsg(now))
}

// Gate returns the active gate (only meaningful from the scheduler's own
// context, e.g. tests after the sim has drained).
func (s *Scheduler) Gate() scheme.Gate { return s.cur }

// SchemeSwitches returns the number of switches issued. Safe for concurrent
// use.
func (s *Scheduler) SchemeSwitches() int64 { return s.switches.Load() }
