package worker

import (
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/ps"
	"specsync/internal/wire"
)

// Elastic membership, worker side. A worker configured with a routing table
// follows the scheduler's commits: every RoutingUpdate re-derives the shard
// view (which ranges to pull/push and which server owns each) and resumes
// whatever phase was in flight against the new layout. A worker configured
// with JoinOnInit introduces itself with a JoinReq and starts training from
// the JoinAck, seeded with the released clock and the table.
//
// The invariant the resume logic protects: every computed gradient is applied
// to the global model exactly once (codec path, via the error-feedback
// residual) or at least once (raw path, where a re-sent range may overlap an
// already-acknowledged one — a duplicated gradient perturbs rather than
// corrupts SGD, same as the crash-retry path).

// sendJoinReq announces this worker to the scheduler, retrying on the
// RetryAfter cadence until the JoinAck arrives (the request races the
// scheduler's startup under live transports).
func (wk *Worker) sendJoinReq() {
	if wk.started || wk.st == stateStopped {
		return
	}
	wk.ctx.Send(wk.schedID, &msg.JoinReq{})
	if wk.cfg.RetryAfter > 0 {
		wk.ctx.After(wk.cfg.RetryAfter, wk.sendJoinReq)
	}
}

// handleJoinAck starts a joining worker: adopt the committed routing table and
// the released clock, then begin the first iteration there.
func (wk *Worker) handleJoinAck(ack *msg.JoinAck) {
	if wk.started {
		return // duplicate ack from a retried JoinReq
	}
	if !wk.installRouting(ack.Epoch, ack.Lo, ack.Hi, ack.Srv, true) {
		wk.ctx.Logf("worker: join ack carried an unusable routing table; waiting for retry")
		return
	}
	// The joiner enters at the released clock: it has "completed" everything
	// before it.
	wk.iter = ack.Clock
	wk.released = max(wk.released, ack.Clock)
	wk.started = true
	wk.beginIteration()
}

// handleRoutingUpdate applies a mid-run migration commit.
func (wk *Worker) handleRoutingUpdate(u *msg.RoutingUpdate) {
	if wk.cfg.Routing == nil && !wk.cfg.JoinOnInit {
		wk.ctx.Logf("worker: routing update but elastic routing is off; ignored")
		return
	}
	wk.installRouting(u.Epoch, u.Lo, u.Hi, u.Srv, false)
}

// installRouting swaps in a newer routing table and resumes the in-flight
// phase against it. force bypasses the epoch guard (initial install from a
// JoinAck). Reports whether the table was adopted.
func (wk *Worker) installRouting(epoch int64, lo, hi, srv []int32, force bool) bool {
	if !force && epoch <= wk.routingEpoch {
		return false // stale or duplicated commit
	}
	t, err := core.TableFromWire(epoch, lo, hi, srv)
	if err != nil {
		wk.ctx.Logf("worker: routing update: %v; ignored", err)
		return false
	}
	if t.Dim() != wk.cfg.Model.Dim() {
		wk.ctx.Logf("worker: routing table covers %d params, model has %d; ignored", t.Dim(), wk.cfg.Model.Dim())
		return false
	}
	oldShards, oldAcked, oldVersions := wk.shards, wk.pushAcked, wk.pullVersions
	newShards, newSrv := shardsFromRoutes(t.Shards)

	if wk.residual != nil {
		wk.remapResidual(oldShards, newShards, oldAcked)
	}
	wk.setShards(newShards, newSrv)
	wk.routingEpoch = epoch

	// Per-shard bookkeeping is re-derived for the new chunking. Pull versions
	// carry over from whichever old shard contained the new shard's start —
	// they only feed staleness accounting and the delta-pull Have, and the
	// latter is reset anyway (migration clears the servers' delta caches, and
	// a moved shard's version counter restarts from the staged value).
	wk.pullVersions = make([]int64, len(newShards))
	for i, r := range newShards {
		for j, o := range oldShards {
			if o.Lo <= r.Lo && r.Lo < o.Hi {
				wk.pullVersions[i] = oldVersions[j]
				break
			}
		}
	}
	if wk.havePulled != nil {
		wk.havePulled = make([]bool, len(newShards))
	}
	wk.pushAcked = make([]bool, len(newShards))
	if wk.pushCodec != nil {
		wk.pushEnc = make([]wire.Writer, len(newShards))
		maxLen := 0
		for _, r := range newShards {
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		if maxLen > len(wk.recon) {
			wk.recon = make([]float64, maxLen)
		}
	}
	wk.ctx.Logf("worker: routing epoch %d installed (%d shards)", epoch, len(newShards))

	// Resume the in-flight phase against the new layout.
	switch wk.st {
	case statePulling:
		// Re-pull everything; the Seq bump discards responses routed under
		// the old table.
		wk.startPull()
	case statePushing:
		wk.resumePush(oldShards, oldAcked)
	default:
		// Idle, computing, at the gate, or stopped: nothing in flight is
		// addressed to a server, so the new table simply takes effect on the
		// next pull/push.
	}
	return true
}

// remapResidual re-chunks the error-feedback residual for a new shard layout.
// When a push round was in flight, the payloads already encoded for shards
// that never acknowledged are decoded and folded back in — that mass was
// debited from the residual at encode time and would otherwise be lost with
// the frozen shard.
func (wk *Worker) remapResidual(oldShards, newShards []ps.Range, oldAcked []bool) {
	dim := wk.cfg.Model.Dim()
	flat := make([]float64, dim)
	scratch := make([]float64, dim)
	for si, r := range oldShards {
		res := wk.residual.Residuals[si]
		for j, v := range res {
			flat[r.Lo+j] += v
		}
		if wk.st == statePushing && !oldAcked[si] && wk.pushEnc[si].Len() > 0 {
			seg := scratch[:r.Len()]
			if err := codec.DecodePayload(wk.pushCodec.ID(), wk.pushEnc[si].Bytes(), seg); err != nil {
				wk.ctx.Logf("worker: recovering unacked push for shard %d: %v", si, err)
				continue
			}
			for j, v := range seg {
				flat[r.Lo+j] += v
			}
		}
	}
	lens := make([]int, len(newShards))
	for i, r := range newShards {
		lens[i] = r.Len()
	}
	wk.residual = codec.NewState(lens)
	for i, r := range newShards {
		copy(wk.residual.Residuals[i], flat[r.Lo:r.Hi])
	}
}

// resumePush restarts an interrupted push round under the new layout.
func (wk *Worker) resumePush(oldShards []ps.Range, oldAcked []bool) {
	if wk.pushCodec != nil {
		// Codec path: remapResidual already folded the unacknowledged
		// payloads back into the (re-chunked) residual, so a residual-only
		// encode re-derives exactly the outstanding mass — the gradient must
		// not be folded a second time.
		wk.encodeResiduals()
		wk.sendPush()
		return
	}
	// Raw path: a new shard fully covered by acknowledged old ranges has
	// nothing outstanding; everything else is re-sent. Overlap between a
	// re-sent range and an acknowledged one double-applies that slice
	// (at-least-once, as with crash retries).
	for i, r := range wk.shards {
		wk.pushAcked[i] = coveredByAcked(r, oldShards, oldAcked)
	}
	pending := 0
	for _, acked := range wk.pushAcked {
		if !acked {
			pending++
		}
	}
	if pending == 0 {
		wk.finishPush()
		return
	}
	wk.sendPush()
}

// coveredByAcked reports whether [r.Lo, r.Hi) lies entirely inside old ranges
// that were acknowledged. Old shards are contiguous and sorted, so a linear
// sweep suffices.
func coveredByAcked(r ps.Range, oldShards []ps.Range, oldAcked []bool) bool {
	at := r.Lo
	for i, o := range oldShards {
		if o.Hi <= at {
			continue
		}
		if o.Lo > at {
			return false // gap (cannot happen with contiguous shards)
		}
		if !oldAcked[i] {
			return false
		}
		at = o.Hi
		if at >= r.Hi {
			return true
		}
	}
	return false
}

// shardsFromRoutes converts a validated routing table's routes into the
// worker's parallel shard/owner view.
func shardsFromRoutes(routes []core.ShardRoute) ([]ps.Range, []int) {
	shards := make([]ps.Range, len(routes))
	srv := make([]int, len(routes))
	for i, r := range routes {
		shards[i] = ps.Range{Lo: r.Lo, Hi: r.Hi}
		srv[i] = r.Server
	}
	return shards, srv
}
