package core

import (
	"fmt"
	"sort"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/trace"
)

// Straggler mitigation: a periodic scheduler pass turns the straggler
// detector's sustained flags into action. Two actions exist, matching the
// two classic responses to stragglers in parameter-server training:
//
//   - clone: speculative execution. The straggler's next iteration is cloned
//     onto a spare worker; original and clone race, the servers apply
//     whichever push for a logical (worker, iter) arrives first and
//     acknowledge the loser without applying it (ps clone dedup), so the
//     model trajectory is exactly what one worker would have produced. The
//     clone's notifies reach the scheduler from its spare slot and are
//     translated onto the target (handleCloneNotify) so the gate and the
//     epoch both see the target progressing.
//
//   - rebalance: membership surgery. The straggler is retired (the
//     planned-leave path, retireWorker) and a fresh worker is spawned into
//     a spare capacity slot, which joins via the JoinReq handshake.
//     Requires membership changes (Routing != nil).
//
// The pass also closes the detector's blind spot: a fully paused worker
// emits no spans at all, so the span-scoring path never flags exactly the
// straggler that hurts most. Any live worker silent for overdueFactor ×
// the fleet's median notify interval is force-flagged sustained before
// suspects are collected.

// Mitigation pass modes.
const (
	// MitigateObserve runs the detection pass (overdue force-flagging) but
	// takes no action — the unmitigated baseline with honest detector
	// scoring.
	MitigateObserve = "observe"
	// MitigateClone clones flagged stragglers onto spare workers.
	MitigateClone = "clone"
	// MitigateRebalance retires flagged stragglers and admits replacements.
	MitigateRebalance = "rebalance"
)

const (
	// mitigatePeriods × InitialSpan is the mitigation pass period.
	mitigatePeriods = 4
	// overdueFactor × the median notify interval of silence force-flags a
	// worker as a sustained straggler.
	overdueFactor = 4
)

// MitigateConfig arms the scheduler's straggler-mitigation loop.
type MitigateConfig struct {
	// Mode is MitigateObserve, MitigateClone, or MitigateRebalance.
	Mode string
	// Base is the first spare worker slot (== the real worker count).
	// Workers must equal Base + Spares.
	Base int
	// Spares is how many spare slots are available. Slots are used at most
	// once: a stopped clone's slot is not recycled (its worker cannot be
	// restarted), so Spares bounds the total mitigation actions.
	Spares int
	// OnClone builds and joins the clone node for slot, sharing target's
	// data shard, starting from iteration fromIter (clone mode; required).
	// The node must be receiving messages when OnClone returns.
	OnClone func(slot, target int, fromIter int64) error
	// OnSpawn builds and starts a fresh joining worker in slot, replacing
	// retired straggler target (rebalance mode; required). The worker
	// announces itself with JoinReq and inherits target's data shard so the
	// swap does not orphan part of the training set.
	OnSpawn func(slot, target int) error
	// Servers lists the server shard IDs that must hear CloneNotice
	// bindings before a clone starts (clone mode; required).
	Servers []node.ID
}

// validate checks the mitigation config against the scheduler sizing.
func (c *MitigateConfig) validate(workers int) error {
	switch c.Mode {
	case MitigateObserve, MitigateClone, MitigateRebalance:
	default:
		return fmt.Errorf("core: unknown mitigation mode %q", c.Mode)
	}
	if c.Mode != MitigateObserve {
		if c.Spares < 1 {
			return fmt.Errorf("core: mitigation mode %s needs at least 1 spare slot", c.Mode)
		}
		if c.Base < 1 || c.Base+c.Spares != workers {
			return fmt.Errorf("core: mitigation slots [%d,%d) must end at Workers=%d", c.Base, c.Base+c.Spares, workers)
		}
	}
	if c.Mode == MitigateClone && (c.OnClone == nil || len(c.Servers) == 0) {
		return fmt.Errorf("core: clone mitigation needs OnClone and the server list")
	}
	if c.Mode == MitigateRebalance && c.OnSpawn == nil {
		return fmt.Errorf("core: rebalance mitigation needs OnSpawn")
	}
	return nil
}

// mitigateState is the scheduler's mitigation bookkeeping.
type mitigateState struct {
	start     time.Time   // loop start; overdue baseline for never-notified workers
	cloneOf   []int       // per spare slot: target worker index, -1 idle, -2 spent
	cloneFor  map[int]int // target -> active spare slot
	selfIter  []int64     // per real worker: iterations completed by the worker ITSELF (clone notifies excluded)
	acted     map[int]bool
	usedSlots int
	clones    int64
	cloneStop int64
	rebal     int64
}

// MitigationStats reports the mitigation loop's cumulative actions.
type MitigationStats struct {
	Clones      int64 `json:"clones,omitempty"`
	CloneStops  int64 `json:"clone_stops,omitempty"`
	Rebalances  int64 `json:"rebalances,omitempty"`
	ActiveClone int   `json:"active_clones,omitempty"`
}

// MitigationStats returns the mitigation counters (meaningful once the sim
// has drained, like Alive).
func (s *Scheduler) MitigationStats() MitigationStats {
	if s.mit == nil {
		return MitigationStats{}
	}
	return MitigationStats{
		Clones:      s.mit.clones,
		CloneStops:  s.mit.cloneStop,
		Rebalances:  s.mit.rebal,
		ActiveClone: len(s.mit.cloneFor),
	}
}

// armMitigate schedules the next mitigation pass, every mitigatePeriods
// nominal iteration spans.
func (s *Scheduler) armMitigate() {
	s.ctx.After(mitigatePeriods*s.cfg.InitialSpan, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.mitigateTick(s.ctx.Now())
		s.armMitigate()
	})
}

// cloneSlot reports whether worker index i is a clone-mode spare slot, whose
// traffic must be translated instead of treated as a member's.
func (s *Scheduler) cloneSlot(i int) bool {
	return s.mit != nil && s.cfg.Mitigate.Mode == MitigateClone && i >= s.cfg.Mitigate.Base
}

// mitigateTick is one evaluation pass: force-flag overdue workers, collect
// sustained suspects, act per mode, and retire clones whose target recovered.
func (s *Scheduler) mitigateTick(now time.Time) {
	s.forceOverdue(now)
	base := s.cfg.Mitigate.Base
	if base == 0 {
		base = s.m
	}
	for i := 0; i < base; i++ {
		if !s.alive[i] {
			continue
		}
		_, level, ok := s.cfg.Obs.StragglerFlag(i)
		sustained := ok && level == obs.StragglerSustained
		switch s.cfg.Mitigate.Mode {
		case MitigateClone:
			if slot, cloned := s.mit.cloneFor[i]; cloned {
				// Retiring the clone needs more than a cleared flag: after a
				// long pause the recovered original replays iterations far
				// behind the clone-driven frontier, and stopping the clone
				// then would park the whole fleet at a barrier the original
				// cannot satisfy for hundreds of rounds. The clone stays
				// until the original has itself caught up to the frontier.
				if !sustained && s.mit.selfIter[i] >= s.notifyCount[i] {
					s.stopClone(slot, i, now)
				}
			} else if sustained {
				s.startClone(i, now)
			}
		case MitigateRebalance:
			if sustained && !s.mit.acted[i] {
				s.rebalance(i, now)
			}
		}
	}
}

// forceOverdue flags live workers whose last notify is older than
// overdueFactor × the fleet's median notify interval. Silence alone is not
// enough: under BSP (or at the SSP staleness gate) every healthy worker goes
// silent while parked waiting for the straggler, so only workers strictly
// behind the fleet's completed-iteration frontier are eligible — the parked
// majority sits at the frontier, the worker that is pinning it does not.
// The limit deliberately uses the notify-interval EWMA rather than
// worker-reported compute spans: when coordination stretches every round
// (a straggler pinning a barrier), healthy workers legitimately go silent
// for a whole round, so silence must be judged against how often the fleet
// actually notifies, not how fast it computes. The score reported is the
// silence measured in median intervals.
func (s *Scheduler) forceOverdue(now time.Time) {
	base := s.cfg.Mitigate.Base
	if base == 0 {
		base = s.m
	}
	spans := make([]float64, 0, base)
	frontier := int64(-1)
	for i := 0; i < base; i++ {
		if s.alive[i] {
			spans = append(spans, float64(s.spanEWMA[i]))
			if s.notifyCount[i] > frontier {
				frontier = s.notifyCount[i]
			}
		}
	}
	if len(spans) == 0 {
		return
	}
	sort.Float64s(spans)
	med := time.Duration(spans[len(spans)/2])
	if med <= 0 {
		med = s.cfg.InitialSpan
	}
	limit := time.Duration(overdueFactor * float64(med))
	for i := 0; i < base; i++ {
		if !s.alive[i] || s.notifyCount[i] >= frontier {
			continue
		}
		last := s.lastNotify[i]
		if last.IsZero() {
			last = s.mit.start
		}
		if silent := now.Sub(last); silent > limit {
			s.cfg.Obs.MarkStraggler(now, i, float64(silent)/float64(med))
		}
	}
}

// startClone claims a spare slot and clones target's next iteration onto it:
// the harness builds and joins the clone node, every server shard learns the
// slot→target binding, and the clone is released at the target's current
// position in the active discipline.
func (s *Scheduler) startClone(target int, now time.Time) {
	slot := -1
	for off, t := range s.mit.cloneOf {
		if t == -1 {
			slot = s.cfg.Mitigate.Base + off
			break
		}
	}
	if slot < 0 {
		return // spares exhausted
	}
	fromIter := s.notifyCount[target]
	if err := s.cfg.Mitigate.OnClone(slot, target, fromIter); err != nil {
		s.ctx.Logf("scheduler: clone of worker %d onto slot %d failed: %v", target, slot, err)
		return
	}
	for _, srv := range s.cfg.Mitigate.Servers {
		s.ctx.Send(srv, &msg.CloneNotice{Slot: int32(slot), Target: int32(target)})
	}
	s.ctx.Send(node.WorkerID(slot), &msg.CloneCtl{StartIter: fromIter, Released: s.released})
	s.mit.cloneOf[slot-s.cfg.Mitigate.Base] = target
	s.mit.cloneFor[target] = slot
	s.mit.clones++
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: target, Kind: trace.KindClone, Iter: fromIter, Value: int64(slot)})
	}
	s.ctx.Logf("scheduler: cloned straggler %d onto spare slot %d from iteration %d", target, slot, fromIter)
}

// stopClone retires an active clone after its target recovered: the clone
// node stops, the servers clear the alias (later clone pushes in flight are
// dropped and never applied), and the slot is marked spent.
func (s *Scheduler) stopClone(slot, target int, now time.Time) {
	s.ctx.Send(node.WorkerID(slot), &msg.Stop{})
	for _, srv := range s.cfg.Mitigate.Servers {
		s.ctx.Send(srv, &msg.CloneNotice{Slot: int32(slot), Target: -1})
	}
	s.mit.cloneOf[slot-s.cfg.Mitigate.Base] = -2
	delete(s.mit.cloneFor, target)
	s.mit.cloneStop++
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: target, Kind: trace.KindCloneStop, Value: int64(slot)})
	}
	s.ctx.Logf("scheduler: stopped clone of recovered worker %d on slot %d", target, slot)
}

// rebalance swaps a sustained straggler out of membership: a fresh worker is
// spawned into the next spare capacity slot (it admits itself via JoinReq)
// and the straggler is retired through the planned-leave path.
func (s *Scheduler) rebalance(target int, now time.Time) {
	if s.mit.usedSlots >= s.cfg.Mitigate.Spares {
		return
	}
	slot := s.cfg.Mitigate.Base + s.mit.usedSlots
	if err := s.cfg.Mitigate.OnSpawn(slot, target); err != nil {
		s.ctx.Logf("scheduler: rebalance spawn into slot %d failed: %v", slot, err)
		return
	}
	s.mit.usedSlots++
	s.mit.acted[target] = true
	s.mit.rebal++
	s.retireWorker(target)
	s.ctx.Logf("scheduler: rebalanced straggler %d out; replacement joining in slot %d", target, slot)
}

// handleCloneNotify translates a clone's notify onto its target. Only a
// notify that advances the target's completed count registers — a duplicate
// of an iteration the original already reported (the clone lost that race)
// is ignored. The translation deliberately skips liveness touches and span
// feeds: the original's own slow spans keep the straggler flag latched, so a
// fast clone cannot clear the flag and trigger a stop/restart oscillation.
func (s *Scheduler) handleCloneNotify(slot int, n *msg.Notify) {
	target, active := -1, false
	if off := slot - s.cfg.Mitigate.Base; off >= 0 && off < len(s.mit.cloneOf) {
		target = s.mit.cloneOf[off]
		active = target >= 0
	}
	if !active {
		return // stale traffic from a stopped clone
	}
	now := s.ctx.Now()
	if c := n.Iter + 1; c <= s.notifyCount[target] {
		return
	}
	s.notifyCount[target] = n.Iter + 1

	s.recordPush(target, now)

	if !s.pushed[target] {
		s.pushed[target] = true
		s.pushedN++
		if s.pushedN >= s.aliveN {
			s.epochBoundary(now)
		}
	}
	s.countIntoWindows(target, now)
	s.advanceGate()
	s.viewAt = now
}
