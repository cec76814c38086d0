package core

import (
	"sync/atomic"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/trace"
)

// Membership (cfg.Routing != nil): the scheduler admits workers that enter a
// running cluster with a JoinReq and retires workers it takes out of it.
// Rebalance mitigation uses both to swap a straggler for a replacement on a
// spare slot (see mitigate.go). The routing table is the one the cluster
// started with; it is never re-versioned.

// scaleCounters counts membership changes; atomics so live-mode monitors can
// read while the scheduler runs.
type scaleCounters struct {
	joins  atomic.Int64
	leaves atomic.Int64
}

// ScaleStats is the end-of-run summary of membership changes.
type ScaleStats struct {
	Joins  int64
	Leaves int64
}

// ScaleStats snapshots membership changes. Safe for concurrent use.
func (s *Scheduler) ScaleStats() ScaleStats {
	return ScaleStats{Joins: s.scale.joins.Load(), Leaves: s.scale.leaves.Load()}
}

// handleJoinReq admits a joining worker (idempotently: a retried JoinReq
// just resends the ack).
func (s *Scheduler) handleJoinReq(from node.ID) {
	i := node.WorkerIndex(from)
	if i < 0 || i >= s.m {
		s.ctx.Logf("scheduler: join request from non-worker %s", from)
		return
	}
	if s.routing == nil {
		s.ctx.Logf("scheduler: join request from %s but membership is off", from)
		return
	}
	now := s.ctx.Now()
	if s.alive[i] {
		s.sendJoinAck(i) // ack lost or duplicated; resend
		return
	}
	s.joined[i] = true
	s.alive[i] = true
	s.aliveN++
	if s.cfg.LivenessTimeout > 0 {
		s.lastSeen[i] = now
	}
	epoch := s.membershipEpoch.Add(1)
	s.scale.joins.Add(1)
	s.cfg.Obs.Join(now, i, epoch)
	s.cfg.Obs.AliveWorkers(s.aliveN)
	s.cfg.Obs.ClusterSize(s.aliveN, len(s.routing.Shards))
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: i, Kind: trace.KindJoin, Value: epoch})
	}
	s.ctx.Logf("scheduler: worker %d joined (membership epoch %d, %d alive)", i, epoch, s.aliveN)
	s.sendJoinAck(i)
	s.viewAt = now
}

// sendJoinAck admits worker i at the released clock: it starts there and
// adopts it as released, so it never drags the gate backwards.
func (s *Scheduler) sendJoinAck(i int) {
	lo, hi, srv := TableToWire(s.routing)
	s.ctx.Send(node.WorkerID(i), &msg.JoinAck{
		Epoch: s.routing.Epoch,
		Lo:    lo,
		Hi:    hi,
		Srv:   srv,
		Clock: s.released,
	})
	// A joiner boots under the configured scheme; bring it up to the active
	// discipline (it ignores scheme epochs it has already applied).
	s.resendScheme(i, s.ctx.Now())
}

// retireWorker takes worker i out of the cluster: stop it and remove it from
// membership (the planned twin of evict).
func (s *Scheduler) retireWorker(i int) {
	if i < 0 || i >= s.m {
		s.ctx.Logf("scheduler: retire of out-of-range worker %d", i)
		return
	}
	if !s.alive[i] {
		s.ctx.Logf("scheduler: retire of non-member worker %d; ignored", i)
		return
	}
	now := s.ctx.Now()
	s.ctx.Send(node.WorkerID(i), &msg.Stop{})
	s.alive[i] = false
	// Planned departure: liveness touch must not re-admit this slot; only a
	// fresh JoinReq brings it back.
	s.joined[i] = false
	s.aliveN--
	epoch := s.membershipEpoch.Add(1)
	s.scale.leaves.Add(1)
	s.cfg.Obs.Leave(now, i, epoch)
	s.cfg.Obs.AliveWorkers(s.aliveN)
	s.cfg.Obs.ClusterSize(s.aliveN, len(s.routing.Shards))
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: i, Kind: trace.KindLeave, Value: epoch})
	}
	s.ctx.Logf("scheduler: worker %d retired (membership epoch %d, %d alive)", i, epoch, s.aliveN)
	s.dropFromCoordination(i, now)
	s.viewAt = now
}
