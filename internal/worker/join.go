package worker

import (
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/ps"
	"specsync/internal/wire"
)

// Joining a running cluster, worker side. A worker configured with JoinOnInit
// (a rebalance replacement on a spare slot) introduces itself with a JoinReq
// and starts training from the JoinAck, seeded with the released clock and
// the routing table.

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

// handleJoinAck starts a joining worker: adopt the routing table and the
// released clock, then begin the first iteration there.
func (wk *Worker) handleJoinAck(ack *msg.JoinAck) {
	if wk.started {
		return // duplicate ack from a retried JoinReq
	}
	if !wk.installRouting(ack.Epoch, ack.Lo, ack.Hi, ack.Srv) {
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

// installRouting adopts the routing table a JoinAck carries. It runs before
// the joiner's first iteration, so no round is in flight and the per-shard
// bookkeeping starts fresh for the table's layout. Reports whether the table
// was adopted.
func (wk *Worker) installRouting(epoch int64, lo, hi, srv []int32) bool {
	t, err := core.TableFromWire(epoch, lo, hi, srv)
	if err != nil {
		wk.ctx.Logf("worker: routing table: %v; ignored", err)
		return false
	}
	if t.Dim() != wk.cfg.Model.Dim() {
		wk.ctx.Logf("worker: routing table covers %d params, model has %d; ignored", t.Dim(), wk.cfg.Model.Dim())
		return false
	}
	shards, shardSrv := shardsFromRoutes(t.Shards)
	wk.setShards(shards, shardSrv)
	wk.pullVersions = make([]int64, len(shards))
	wk.havePulled = make([]bool, len(shards))
	wk.answered = make([]bool, len(shards))
	if wk.pushCodec != nil {
		lens := make([]int, len(shards))
		for i, r := range shards {
			lens[i] = r.Len()
		}
		wk.residual = codec.NewState(lens)
		wk.pushEnc = make([]wire.Writer, len(shards))
	}
	wk.ctx.Logf("worker: routing epoch %d installed (%d shards)", epoch, len(shards))
	return true
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
