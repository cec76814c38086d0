package worker

import (
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/trace"
)

// This file implements the decentralized (broadcast) speculation variant
// that the paper considers and rejects (Sec. V-A): instead of reporting to a
// central scheduler, every worker announces each completed push to all peers
// with a PushNotice, keeps its own copy of the global push history, and runs
// the CheckResync logic locally. It exists so the centralized-vs-broadcast
// ablation measures real traffic rather than an estimate — and it
// demonstrates the redundancy argument: m workers each store the history the
// scheduler would have stored once.

// broadcastPushHistoryLimit bounds each worker's local history copy.
const broadcastPushHistoryLimit = 1024

// broadcastNotices sends a PushNotice to every peer worker.
func (wk *Worker) broadcastNotices() {
	for i := 0; i < wk.cfg.NumWorkers; i++ {
		if i == wk.cfg.Index {
			continue
		}
		wk.ctx.Send(node.WorkerID(i), &msg.PushNotice{Iter: wk.iter})
	}
}

// handlePushNotice records a peer's push in the local history. Entries are
// pruned by age as well as count: a push older than ABORT_TIME can never be
// counted by any still-pending local CheckResync (windows are ABORT_TIME
// long and their check fires at expiry), so a slow worker does not retain
// pushes far older than any speculation window.
func (wk *Worker) handlePushNotice(from node.ID) {
	if node.WorkerIndex(from) < 0 {
		return
	}
	now := wk.ctx.Now()
	if abortTime, _ := wk.localSpecParams(); abortTime > 0 {
		cutoff := now.Add(-abortTime)
		pushes := wk.peerPushes.Items()
		stale := 0
		for stale < len(pushes) && !pushes[stale].After(cutoff) {
			stale++
		}
		wk.peerPushes.Drop(stale)
	}
	wk.peerPushes.Push(now)
	if over := wk.peerPushes.Len() - broadcastPushHistoryLimit; over > 0 {
		wk.peerPushes.Drop(over)
	}
}

// armLocalSpeculation schedules the local CheckResync for the iteration that
// just started computing. Called from startCompute in decentralized mode and
// (with the fallback hyperparameters) in scheduler-failover degraded mode.
func (wk *Worker) armLocalSpeculation() {
	abortTime, _ := wk.localSpecParams()
	if abortTime <= 0 {
		return
	}
	start := wk.ctx.Now()
	deadline := start.Add(abortTime)
	iter := wk.iter
	wk.ctx.After(abortTime, func() {
		wk.checkLocalResync(start, deadline, iter)
	})
}

// checkLocalResync is the worker-local version of the scheduler's
// CheckResync: count peer pushes inside the window and self-abort when the
// rate threshold is met.
func (wk *Worker) checkLocalResync(start, deadline time.Time, iter int64) {
	if wk.st != stateComputing || wk.iter != iter {
		return
	}
	cnt := 0
	pushes := wk.peerPushes.Items()
	for j := len(pushes) - 1; j >= 0; j-- {
		at := pushes[j]
		if !at.After(start) {
			break
		}
		if at.After(deadline) {
			continue
		}
		cnt++
	}
	_, abortRate := wk.localSpecParams()
	if cnt < 1 || float64(cnt) < float64(wk.cfg.NumWorkers)*abortRate {
		return
	}
	// Too late to bother? Same cutoff as the scheduler-driven path.
	elapsed := wk.ctx.Now().Sub(wk.computeStart)
	if float64(elapsed) >= wk.cfg.AbortLateFrac*float64(wk.computeDur) {
		return
	}
	if wk.computeCancel != nil {
		wk.computeCancel()
		wk.computeCancel = nil
	}
	wk.abortCount.Add(1)
	wk.record(trace.KindAbort, int64(elapsed/time.Millisecond))
	wk.startPull()
}
