package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/trace"
)

// Elastic membership (cfg.Routing != nil): the scheduler admits joining
// workers, retires workers on scale-plan commands, and rebalances parameter
// shards across a changing server set. A migration is a strict
// freeze → transfer → commit → resume sequence:
//
//	scheduler                donors/receivers              workers
//	   │  ShardTransfer  ──────────►│ (freeze; drop data)
//	   │                            │──ShardState──► peers
//	   │◄────── MigrateDone ────────│ (all segments staged)
//	   │  RoutingUpdate  ──────────►│ (adopt staged range)
//	   │  RoutingUpdate  ─────────────────────────────────►│ (re-route, retry)
//
// Only one migration is in flight at a time; scale commands arriving
// mid-handoff queue in FIFO order. Workers that raced the freeze retry their
// pulls/pushes until the commit re-routes them, so no acknowledged push is
// ever lost.

// scaleCounters aggregates elastic activity; atomics so live-mode monitors
// can read while the scheduler runs.
type scaleCounters struct {
	joins          atomic.Int64
	leaves         atomic.Int64
	migrations     atomic.Int64
	migrationBytes atomic.Int64

	mu        sync.Mutex
	durations []time.Duration
}

// ScaleStats is the end-of-run summary of elastic activity.
type ScaleStats struct {
	Joins          int64
	Leaves         int64
	Migrations     int64
	MigrationBytes int64
	// Durations holds each committed migration's freeze-to-commit time.
	Durations []time.Duration
}

// ScaleStats snapshots elastic activity. Safe for concurrent use.
func (s *Scheduler) ScaleStats() ScaleStats {
	s.scale.mu.Lock()
	durs := make([]time.Duration, len(s.scale.durations))
	copy(durs, s.scale.durations)
	s.scale.mu.Unlock()
	return ScaleStats{
		Joins:          s.scale.joins.Load(),
		Leaves:         s.scale.leaves.Load(),
		Migrations:     s.scale.migrations.Load(),
		MigrationBytes: s.scale.migrationBytes.Load(),
		Durations:      durs,
	}
}

// Routing returns a copy of the committed routing table (nil when elastic is
// off). Only meaningful from the scheduler's own execution context or after
// the runtime has drained.
func (s *Scheduler) Routing() *RoutingTable { return s.routing.Clone() }

// handleJoinReq admits a joining worker (idempotently: a retried JoinReq
// just resends the ack).
func (s *Scheduler) handleJoinReq(from node.ID) {
	i := node.WorkerIndex(from)
	if i < 0 || i >= s.m {
		s.ctx.Logf("scheduler: join request from non-worker %s", from)
		return
	}
	if s.routing == nil {
		s.ctx.Logf("scheduler: join request from %s but elastic membership is off", from)
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
	s.cfg.Obs.ClusterSize(s.aliveN, len(s.liveServers))
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

// handleScaleCmd applies one scale-plan command. Server-set changes serialize
// behind any in-flight migration.
func (s *Scheduler) handleScaleCmd(cmd *msg.ScaleCmd) {
	if s.routing == nil {
		s.ctx.Logf("scheduler: scale command but elastic membership is off")
		return
	}
	switch cmd.Op {
	case msg.ScaleRetireWorker:
		s.retireWorker(int(cmd.Node))
	case msg.ScaleSetServers:
		if s.migrating {
			s.pendingOps = append(s.pendingOps, cmd)
			return
		}
		s.startMigration(cmd.Servers)
	default:
		s.ctx.Logf("scheduler: unknown scale op %d", cmd.Op)
	}
}

// retireWorker executes a planned scale-down of one worker: stop it and
// remove it from membership (the planned twin of evict).
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
	s.cfg.Obs.ClusterSize(s.aliveN, len(s.liveServers))
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: i, Kind: trace.KindLeave, Value: epoch})
	}
	s.ctx.Logf("scheduler: worker %d retired (membership epoch %d, %d alive)", i, epoch, s.aliveN)
	s.dropFromCoordination(i, now)
	s.viewAt = now
}

// startMigration freezes the involved servers and hands each its precomputed
// transfer: what to keep, what to send where, and how many segments to
// expect.
func (s *Scheduler) startMigration(slots []int32) {
	newLive := normalizeSlots(slots)
	if len(newLive) == 0 {
		s.ctx.Logf("scheduler: scale command with no servers; ignored")
		return
	}
	if equalInts(newLive, s.liveServers) {
		return
	}
	dim := s.routing.Dim()
	routes, err := SplitRoutes(dim, newLive)
	if err != nil {
		s.ctx.Logf("scheduler: rebalance to %v: %v; ignored", newLive, err)
		return
	}
	now := s.ctx.Now()
	s.nextRouting = &RoutingTable{Epoch: s.routing.Epoch + 1, Shards: routes}
	s.migrating = true
	s.migStart = now
	s.migBytes = 0
	s.migInvolved = unionInts(s.liveServers, newLive)
	s.migExpect = make(map[int]bool, len(s.migInvolved))
	s.ctx.Logf("scheduler: migrating %d params to servers %v (epoch %d)", dim, newLive, s.nextRouting.Epoch)

	for _, slot := range s.migInvolved {
		s.migExpect[slot] = true
		t := &msg.ShardTransfer{Epoch: s.nextRouting.Epoch}
		oldLo, oldHi, hasOld := s.routing.RangeOf(slot)
		newLo, newHi, hasNew := s.nextRouting.RangeOf(slot)
		if hasNew {
			t.HasNew = true
			t.NewLo, t.NewHi = int64(newLo), int64(newHi)
		}
		if hasOld && hasNew {
			if lo, hi, ok := intersect(oldLo, oldHi, newLo, newHi); ok {
				t.KeepLo, t.KeepHi = int64(lo), int64(hi)
			}
		}
		if hasOld {
			// Segments of the old range now owned by other servers.
			for _, r := range s.nextRouting.Shards {
				if r.Server == slot {
					continue
				}
				if lo, hi, ok := intersect(oldLo, oldHi, r.Lo, r.Hi); ok {
					t.SendLo = append(t.SendLo, int32(lo))
					t.SendHi = append(t.SendHi, int32(hi))
					t.SendTo = append(t.SendTo, int32(r.Server))
				}
			}
		}
		if hasNew {
			// Segments of the new range owned by other servers today.
			for _, r := range s.routing.Shards {
				if r.Server == slot {
					continue
				}
				if _, _, ok := intersect(r.Lo, r.Hi, newLo, newHi); ok {
					t.Expect++
				}
			}
		}
		s.ctx.Send(node.ServerID(slot), t)
	}
}

// handleMigrateDone collects per-server completion; the last one commits.
func (s *Scheduler) handleMigrateDone(from node.ID, md *msg.MigrateDone) {
	slot := node.ServerIndex(from)
	if !s.migrating || s.nextRouting == nil || md.Epoch != s.nextRouting.Epoch || !s.migExpect[slot] {
		s.ctx.Logf("scheduler: unexpected migrate-done from %s (epoch %d)", from, md.Epoch)
		return
	}
	delete(s.migExpect, slot)
	s.migBytes += md.Bytes
	if len(s.migExpect) > 0 {
		return
	}
	s.commitMigration()
}

// commitMigration swaps in the new table and broadcasts the commit to every
// live worker and involved server, then drains any queued scale command.
func (s *Scheduler) commitMigration() {
	now := s.ctx.Now()
	s.routing = s.nextRouting
	s.nextRouting = nil
	s.liveServers = s.routing.Servers()
	s.migrating = false

	lo, hi, srv := TableToWire(s.routing)
	update := func() *msg.RoutingUpdate {
		return &msg.RoutingUpdate{Epoch: s.routing.Epoch, Lo: lo, Hi: hi, Srv: srv}
	}
	for _, slot := range s.migInvolved {
		s.ctx.Send(node.ServerID(slot), update())
	}
	for i := 0; i < s.m; i++ {
		if s.alive[i] {
			s.ctx.Send(node.WorkerID(i), update())
		}
	}
	s.migInvolved = nil

	dur := now.Sub(s.migStart)
	s.scale.migrations.Add(1)
	s.scale.migrationBytes.Add(s.migBytes)
	s.scale.mu.Lock()
	s.scale.durations = append(s.scale.durations, dur)
	s.scale.mu.Unlock()
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: -1, Kind: trace.KindMigrate, Iter: s.routing.Epoch, Value: s.migBytes})
	}
	s.cfg.Obs.MigrationDone(now, s.routing.Epoch, s.migBytes, dur)
	s.cfg.Obs.ClusterSize(s.aliveN, len(s.liveServers))
	s.ctx.Logf("scheduler: routing epoch %d committed (%d bytes moved in %v, servers %v)",
		s.routing.Epoch, s.migBytes, dur, s.liveServers)
	if s.cfg.OnRouting != nil {
		s.cfg.OnRouting(s.routing.Clone())
	}

	if len(s.pendingOps) > 0 {
		next := s.pendingOps[0]
		s.pendingOps = s.pendingOps[1:]
		s.handleScaleCmd(next)
	}
}

func normalizeSlots(slots []int32) []int {
	seen := make(map[int]bool, len(slots))
	out := make([]int, 0, len(slots))
	for _, v := range slots {
		if v < 0 || seen[int(v)] {
			continue
		}
		seen[int(v)] = true
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func unionInts(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, v := range append(append([]int{}, a...), b...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// intersect returns the overlap of [aLo,aHi) and [bLo,bHi).
func intersect(aLo, aHi, bLo, bHi int) (lo, hi int, ok bool) {
	lo, hi = aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi <= lo {
		return 0, 0, false
	}
	return lo, hi, true
}
