package worker

import (
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// This file implements the worker side of scheduler fault tolerance: a
// scheduler failure detector (beacon/notify-silence timeout), degraded-mode
// failover onto the decentralized broadcast speculation path while the
// coordinator is down, and the SchedulerHello / StateReport handshake that
// lets a restarted scheduler incarnation rebuild its gate and epoch state
// from the surviving workers.

// armSchedulerWatch schedules the periodic scheduler failure-detection pass.
// As with the scheduler's liveness sweep, checking at half the timeout
// bounds detection latency to 1.5x SchedulerTimeout.
func (wk *Worker) armSchedulerWatch() {
	wk.ctx.After(wk.cfg.SchedulerTimeout/2, func() {
		if wk.st == stateStopped {
			return
		}
		if wk.ctx.Now().Sub(wk.schedLastSeen) > wk.cfg.SchedulerTimeout {
			wk.enterDegraded()
		}
		wk.armSchedulerWatch()
	})
}

// canBroadcastFailover reports whether this worker can fail over to the
// broadcast speculation path: there must be a centralized speculation scheme
// to stand in for, a gate bound above 0 for it to act under, and peers to
// broadcast to. (The decentralized ablation already runs that path
// full-time.)
func (wk *Worker) canBroadcastFailover() bool {
	return wk.cfg.Scheme.Spec != scheme.SpecOff && !wk.cfg.Scheme.Decentralized && wk.gate.Bound != 0 && wk.cfg.NumWorkers >= 2
}

// enterDegraded marks the scheduler as lost. Under a centralized speculation
// scheme the worker flips to the broadcast path (PushNotice to peers, local
// CheckResync); under a bounded gate without speculation there is nothing to
// fail over to — the worker keeps training (or waiting) and the post-restart
// handshake resends the pending release.
func (wk *Worker) enterDegraded() {
	if wk.degraded.Load() {
		return
	}
	wk.degraded.Store(true)
	wk.cfg.Faults.RecordDegraded()
	wk.cfg.Obs.Degraded(wk.ctx.Now(), true)
	wk.record(trace.KindDegrade, 1)
	wk.ctx.Logf("worker %d: scheduler silent for %v; broadcast failover %v",
		wk.cfg.Index, wk.cfg.SchedulerTimeout, wk.canBroadcastFailover())
	// An iteration already computing gets a local window immediately; the
	// scheduler's window for it died with the scheduler.
	if wk.st == stateComputing && wk.canBroadcastFailover() {
		wk.armLocalSpeculation()
	}
}

// exitDegraded returns the worker to the centralized path.
func (wk *Worker) exitDegraded() {
	if !wk.degraded.Load() {
		return
	}
	wk.degraded.Store(false)
	wk.cfg.Faults.RecordDegradedRecover()
	wk.cfg.Obs.Degraded(wk.ctx.Now(), false)
	wk.record(trace.KindDegrade, 0)
	wk.ctx.Logf("worker %d: scheduler back (gen %d); centralized path restored", wk.cfg.Index, wk.schedGen)
}

// noteSchedulerGen handles SchedulerHello, SchedulerBeacon, and
// LeaderAnnounce: a generation newer than any seen means a new scheduler
// incarnation took over, so the worker adopts the sender as its scheduler
// (redirecting every scheduler-bound send to it — an elected standby serves
// from its own node ID) and answers with a StateReport (the beacon case
// covers workers that missed the Hello or LeaderAnnounce broadcast). A
// current-generation message from the adopted scheduler proves it alive,
// ending degraded mode; anything from an older generation is a deposed
// incarnation's stale beacon and must not touch the failure detector.
func (wk *Worker) noteSchedulerGen(from node.ID, gen int64) {
	if gen < wk.schedGen {
		return
	}
	if gen > wk.schedGen {
		wk.schedGen = gen
		// A new incarnation re-announces the active discipline under its own
		// (checkpoint-restored) scheme-epoch counter; resetting ours makes
		// that re-broadcast authoritative even if its counter is behind what
		// we applied — the whole fleet converges on the scheduler's view.
		wk.schemeEpoch = 0
		if from != wk.schedID {
			wk.ctx.Logf("worker %d: scheduler redirect %s -> %s (gen %d)",
				wk.cfg.Index, wk.schedID, from, gen)
			wk.schedID = from
		}
		wk.sendStateReport()
	}
	if from == wk.schedID {
		wk.schedLastSeen = wk.ctx.Now()
		wk.exitDegraded()
	}
}

// sendStateReport tells the (restarted) scheduler where this worker stands:
// completed iterations double as the gate clock, and Waiting flags a pending
// release the new incarnation must resend.
func (wk *Worker) sendStateReport() {
	wk.ctx.Send(wk.schedID, &msg.StateReport{
		Iter:     wk.iter,
		Pushed:   wk.iter > 0,
		Clock:    wk.iter,
		Waiting:  wk.st == stateBarrier,
		Degraded: wk.degraded.Load(),
	})
}

// localSpecParams returns the ABORT_TIME / ABORT_RATE for the worker-local
// speculation check: the scheme's own fixed values in the decentralized
// ablation, the fallback values in degraded mode.
func (wk *Worker) localSpecParams() (time.Duration, float64) {
	if wk.cfg.Scheme.Decentralized {
		return wk.cfg.Scheme.AbortTime, wk.cfg.Scheme.AbortRate
	}
	return wk.cfg.FallbackAbortTime, wk.cfg.FallbackAbortRate
}

// Degraded reports whether the worker is currently in scheduler-failover
// degraded mode. Safe for concurrent use (live-mode monitoring).
func (wk *Worker) Degraded() bool { return wk.degraded.Load() }
