package ps

import (
	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/sparse"
)

// Shard replication (primary-backup). The primary forwards every applied
// push to its backups as a version-stamped msg.ReplApply, inside the same
// Receive callback that acknowledges the worker. Because the runtime
// delivers messages already sent by a node even if that node crashes
// immediately afterwards, every acknowledged push is guaranteed to reach the
// backups: a backup promoted after the primary dies holds exactly the acked
// prefix, which is the zero-loss invariant the replication tests assert.
//
// Backups replay ReplApplies in strict version order, buffering any message
// the network reordered past a gap, and stamp the optimizer with Version-1
// before applying — so parameters AND momentum state stay byte-identical to
// the primary's. Duplicate-suppression state (the highest iteration applied
// per worker) is replicated along with the updates, letting the promoted
// primary re-acknowledge a retried push that the dead primary had already
// applied, instead of applying it twice.

// replicated reports whether this shard participates in replication (as
// primary with backups, or as a backup).
func (s *Server) replicated() bool { return s.cfg.Replica || len(s.backups) > 0 }

// SetBackups installs the ReplApply forwarding targets (none disables
// replication). Called at construction time by the harness for the initial
// primary, and at promotion time for a backup taking over (with the
// surviving replicas of its shard).
func (s *Server) SetBackups(ids []node.ID) { s.backups = ids }

// Promote turns a backup into the serving primary for its shard. The caller
// re-registers the handler under the shard's server ID afterwards; from then
// on it answers pulls/pushes and forwards to the surviving backups. The
// promotion is counted in the fault ledger (Config.Obs) here, on either
// runtime.
func (s *Server) Promote(backups []node.ID) {
	s.cfg.Replica = false
	s.backups = backups
	// A promotion should wait until the backup caught up to the dead
	// primary's version, so nothing should be parked here; drop any leftovers
	// rather than replay them against a diverged version line. The primary
	// forwarded each push before acknowledging it, so every version up to the
	// highest parked one is a push it may have acknowledged: lost. That is a
	// lower bound: forwards that never reached the backup after its highest
	// parked version leave no trace here, so 0 does not prove it caught up.
	var lost int64
	for v := range s.pendingRepl {
		lost = max(lost, v-s.version.Load())
	}
	s.pendingRepl = nil
	s.forgetHolders()
	s.cfg.Obs.Promoted(lost)
}

// Replica reports whether the shard is currently a backup.
func (s *Server) Replica() bool { return s.cfg.Replica }

// ReplStats returns replication counters: pushes forwarded to backups (as
// primary), ReplApplies applied (as backup), and duplicate pushes suppressed
// after a promotion. Safe for concurrent use.
func (s *Server) ReplStats() (forwarded, applied, deduped int64) {
	return s.replForwarded.Load(), s.replApplied.Load(), s.replDeduped.Load()
}

// dedupPush reports whether a push is a duplicate of one already applied on
// the replicated version line (a worker retry that raced a primary failover)
// and, if so, re-acknowledges it without touching the parameters. Only
// replicated shards track this: the plain path keeps its at-least-once
// semantics byte-identical to before.
func (s *Server) dedupPush(from node.ID, seq uint64, iter, pullVersion int64, pull bool) bool {
	if !s.replicated() {
		return false
	}
	wi := node.WorkerIndex(from)
	if wi < 0 {
		return false
	}
	last, ok := s.lastIter[int32(wi)]
	if !ok || iter > last {
		return false
	}
	s.replDeduped.Add(1)
	s.reply(from, seq, s.version.Load(), pullVersion, pull)
	return true
}

// noteApplied records the (worker, iter) of an applied push for duplicate
// suppression. Tracked on the primary and replicated to backups via the
// ReplApply stream itself.
func (s *Server) noteApplied(worker int32, iter int64) {
	if s.lastIter == nil {
		s.lastIter = make(map[int32]int64)
	}
	if last, ok := s.lastIter[worker]; !ok || iter > last {
		s.lastIter[worker] = iter
	}
}

// forward ships one applied push to every backup, stamped with the version
// acknowledge just assigned. Send marshals synchronously, so aliasing the
// request's gradient buffers into the ReplApply is safe — and it has to stay
// so: the request goes back to its pool when this Receive returns
// (node.Handler), so a ReplApply that outlived the call would be overwritten
// by the next push decoded.
func (s *Server) forward(worker int32, iter int64, body func() *msg.ReplApply) {
	if len(s.backups) == 0 {
		return
	}
	version := s.version.Load()
	for _, b := range s.backups {
		m := body()
		m.Version = version
		m.Worker = worker
		m.Iter = iter
		s.ctx.Send(b, m)
	}
	s.replForwarded.Add(1)
}

// handleReplApply is the backup side: apply forwarded pushes in strict
// version order, parking anything the network delivered early.
func (s *Server) handleReplApply(req *msg.ReplApply) {
	next := s.version.Load() + 1
	switch {
	case req.Version < next:
		return // duplicate (e.g. re-delivered across a promotion)
	case req.Version > next:
		if s.pendingRepl == nil {
			s.pendingRepl = make(map[int64]*msg.ReplApply)
		}
		s.pendingRepl[req.Version] = req
		return
	}
	s.applyRepl(req)
	for {
		nxt, ok := s.pendingRepl[s.version.Load()+1]
		if !ok {
			break
		}
		delete(s.pendingRepl, nxt.Version)
		s.applyRepl(nxt)
	}
}

// applyRepl applies one in-order forwarded push. It mirrors apply/applyV2
// exactly — same SetStep keying, same optimizer path — so the backup's
// parameter block evolves byte-identically to the primary's.
func (s *Server) applyRepl(req *msg.ReplApply) {
	s.cfg.Optimizer.SetStep(req.Version - 1)
	switch req.Body {
	case msg.ReplBodySparse:
		g := sparse.Vec{Idx: req.Idx, Val: req.Grad}
		if err := g.Validate(s.cfg.Range.Len()); err != nil {
			s.ctx.Logf("server: repl-apply v%d: %v; dropped", req.Version, err)
			return
		}
		s.cfg.Optimizer.ApplySparse(s.params, g)
	case msg.ReplBodyDense:
		if len(req.Dense) != s.cfg.Range.Len() {
			s.ctx.Logf("server: repl-apply v%d has %d values, want %d; dropped",
				req.Version, len(req.Dense), s.cfg.Range.Len())
			return
		}
		s.cfg.Optimizer.ApplyDense(s.params, req.Dense)
	case msg.ReplBodyCodec:
		if err := s.applyCodec(codec.ID(req.Codec), req.Payload); err != nil {
			s.ctx.Logf("server: repl-apply v%d: %v; dropped", req.Version, err)
			return
		}
	}
	s.version.Store(req.Version)
	s.pushes.Add(1)
	s.replApplied.Add(1)
	s.noteApplied(req.Worker, req.Iter)
	s.cfg.Obs.Version(req.Version)
}
