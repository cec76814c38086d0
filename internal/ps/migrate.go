package ps

import (
	"fmt"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/tensor"
)

// Shard migration: the scheduler drives a freeze → transfer → commit handoff
// (see internal/core/elastic.go). A ShardTransfer freezes the shard and tells
// it exactly which segments to keep, which to send where, and how many to
// expect from other donors — servers stay dumb, the scheduler precomputes
// everything. Once every expected segment is staged the shard reports
// MigrateDone; the RoutingUpdate commit then atomically swaps in the staged
// range (rebuilding the optimizer at the new size) or retires the shard.

// NewJoining builds a shard that owns no parameters yet: it stays frozen
// (dropping any data traffic) until a ShardTransfer hands it state and a
// RoutingUpdate commits its range. Config.NewOptimizer is required; Range,
// Init and Optimizer are ignored.
func NewJoining(cfg Config) (*Server, error) {
	if cfg.NewOptimizer == nil {
		return nil, fmt.Errorf("ps: joining shard requires NewOptimizer")
	}
	return &Server{cfg: cfg, frozen: true}, nil
}

// handleTransfer starts this shard's part of a migration.
func (s *Server) handleTransfer(t *msg.ShardTransfer) {
	if s.retired {
		s.ctx.Logf("server: transfer for epoch %d after retirement; ignored", t.Epoch)
		return
	}
	if s.frozen && s.pendingEpoch > 0 {
		if t.Epoch > s.pendingEpoch {
			// The scheduler committed the pending epoch and immediately
			// started the next migration; the new transfer overtook the
			// RoutingUpdate in flight. Park it until the commit lands.
			s.nextTransfer = t
		} else {
			s.ctx.Logf("server: transfer for epoch %d while epoch %d still pending; ignored", t.Epoch, s.pendingEpoch)
		}
		return
	}
	s.frozen = true
	s.pendingEpoch = t.Epoch
	s.hasNew = t.HasNew
	s.expect = t.Expect
	s.recvBytes = 0
	s.stagedVersion = 0
	s.staged = nil
	if t.HasNew {
		s.newRange = Range{Lo: int(t.NewLo), Hi: int(t.NewHi)}
		s.staged = tensor.NewVec(s.newRange.Len())
	}
	// Copy the kept overlap of the old range into the staged block.
	if t.KeepHi > t.KeepLo {
		lo, hi := int(t.KeepLo), int(t.KeepHi)
		copy(s.staged[lo-s.newRange.Lo:hi-s.newRange.Lo], s.params[lo-s.cfg.Range.Lo:hi-s.cfg.Range.Lo])
		s.stagedVersion = s.version.Load()
	}
	// Ship outgoing segments through the codec payload path (raw: migrations
	// must be lossless).
	for i := range t.SendLo {
		lo, hi, to := int(t.SendLo[i]), int(t.SendHi[i]), int(t.SendTo[i])
		seg := s.params[lo-s.cfg.Range.Lo : hi-s.cfg.Range.Lo]
		s.ctx.Send(node.ServerID(to), &msg.ShardState{
			Epoch:   t.Epoch,
			Lo:      int64(lo),
			Hi:      int64(hi),
			Version: s.version.Load(),
			Codec:   uint8(codec.IDRaw),
			Payload: codec.EncodePayload(codec.Raw{}, seg, nil, nil, nil),
		})
	}
	// Segments that arrived before the transfer did (possible under live
	// reordering) were buffered; stage the ones for this epoch now. Segments
	// for later epochs stay buffered; older ones are dropped.
	early := s.early
	s.early = nil
	for _, st := range early {
		switch {
		case st.Epoch == t.Epoch:
			s.applyState(st)
		case st.Epoch > t.Epoch:
			s.early = append(s.early, st)
		}
	}
	s.maybeFinishTransfer()
}

// handleShardState stages one incoming segment, buffering it when the
// matching ShardTransfer has not arrived yet.
func (s *Server) handleShardState(from node.ID, st *msg.ShardState) {
	if s.retired {
		s.ctx.Logf("server: shard state [%d,%d) epoch %d from %s after retirement; dropped", st.Lo, st.Hi, st.Epoch, from)
		return
	}
	if s.frozen && s.hasNew && st.Epoch == s.pendingEpoch {
		s.applyState(st)
		s.maybeFinishTransfer()
		return
	}
	// The matching ShardTransfer has not arrived yet (possible under live
	// reordering): buffer until it does. Segments for older epochs are
	// filtered out when the buffer drains.
	s.early = append(s.early, st)
}

func (s *Server) applyState(st *msg.ShardState) {
	lo, hi := int(st.Lo), int(st.Hi)
	if lo < s.newRange.Lo || hi > s.newRange.Hi || hi <= lo {
		s.ctx.Logf("server: shard state [%d,%d) outside staged range %+v; dropped", lo, hi, s.newRange)
		return
	}
	dst := s.staged[lo-s.newRange.Lo : hi-s.newRange.Lo]
	if err := codec.DecodePayload(codec.ID(st.Codec), st.Payload, dst); err != nil {
		s.ctx.Logf("server: shard state [%d,%d): %v; dropped", lo, hi, err)
		return
	}
	if st.Version > s.stagedVersion {
		s.stagedVersion = st.Version
	}
	s.expect--
	s.recvBytes += int64(len(st.Payload))
}

// maybeFinishTransfer reports MigrateDone once every expected segment is in.
func (s *Server) maybeFinishTransfer() {
	if !s.frozen || s.expect > 0 {
		return
	}
	s.expect = -1 // report once
	s.ctx.Send(node.Scheduler, &msg.MigrateDone{Epoch: s.pendingEpoch, Bytes: s.recvBytes})
}

// handleRoutingCommit finishes the handoff: adopt the staged range (or
// retire) under the committed epoch.
func (s *Server) handleRoutingCommit(u *msg.RoutingUpdate) {
	if !s.frozen || u.Epoch != s.pendingEpoch {
		s.ctx.Logf("server: routing update for epoch %d does not match pending %d; ignored", u.Epoch, s.pendingEpoch)
		return
	}
	self := node.ServerIndex(s.ctx.Self())
	owned := false
	var lo, hi int
	for i := range u.Srv {
		if int(u.Srv[i]) == self {
			owned, lo, hi = true, int(u.Lo[i]), int(u.Hi[i])
			break
		}
	}
	if !owned {
		// Drained: this shard is out of the routing table for good.
		s.retired = true
		s.params = nil
		s.staged = nil
		s.replies = deltaReplies{}
		s.scratch = nil
		s.nextTransfer = nil
		return
	}
	if !s.hasNew || lo != s.newRange.Lo || hi != s.newRange.Hi {
		s.ctx.Logf("server: commit range [%d,%d) does not match staged %+v; keeping old state", lo, hi, s.newRange)
		return
	}
	opt, err := s.cfg.NewOptimizer(s.newRange.Len())
	if err != nil {
		s.ctx.Logf("server: rebuilding optimizer for %d params: %v; keeping old state", s.newRange.Len(), err)
		return
	}
	// Momentum (if any) restarts cold at the new size; SGD state is keyed on
	// the version, which carries over as the max of the contributors.
	s.cfg.Optimizer = opt
	s.cfg.Range = s.newRange
	s.params = s.staged
	s.staged = nil
	s.version.Store(s.stagedVersion)
	s.forgetHolders() // delta bases are meaningless across a range change
	s.scratch = nil
	s.hasNew = false
	s.frozen = false
	if nt := s.nextTransfer; nt != nil {
		s.nextTransfer = nil
		s.handleTransfer(nt)
	}
}

// Frozen reports whether the shard is mid-migration (or joining/retired) and
// currently dropping data traffic.
func (s *Server) Frozen() bool { return s.frozen }

// Retired reports whether the shard has been drained out of the routing
// table.
func (s *Server) Retired() bool { return s.retired }
