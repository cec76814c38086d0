package ps

import (
	"specsync/internal/msg"
	"specsync/internal/node"
)

// Clone dedup: when the scheduler mitigates a straggler by cloning its
// iteration onto a spare worker, the original and the clone race to push the
// same logical (worker, iter) gradient. Servers stay dumb — they do not know
// which worker is a clone of which — except for this one opt-in filter: the
// scheduler announces each clone binding with a CloneNotice before starting
// the clone, the server aliases the spare's slot onto its target, and the
// first push to arrive for a (worker, iter) wins. The loser is acknowledged
// without being applied, so the model digest is exactly what a single
// uncloned worker would have produced.
//
// This is deliberately separate from the replicated-path dedupPush
// (replica.go): that watermark rides the ReplApply stream and only guards
// failover retries; this one is scheduler-driven and guards deliberate
// duplication. Cluster validation keeps the two features mutually exclusive.

// handleCloneNotice binds (Target >= 0) or clears (Target < 0) a clone
// slot's alias.
func (s *Server) handleCloneNotice(req *msg.CloneNotice) {
	if !s.cfg.DedupPushes {
		return
	}
	if req.Target < 0 {
		delete(s.cloneAlias, req.Slot)
		return
	}
	if s.cloneAlias == nil {
		s.cloneAlias = make(map[int32]int32)
	}
	s.cloneAlias[req.Slot] = req.Target
}

// cloneCheck classifies one incoming push under clone dedup. It reports true
// when the push must not be applied: a duplicate of an already-applied
// (worker, iter) — acknowledged so the sender proceeds — or a push from a
// spare slot with no alias yet (the CloneNotice is still in flight, or the
// clone was retired; dropped so the sender's retry resolves the race).
func (s *Server) cloneCheck(from node.ID, seq uint64, iter, pullVersion int64, pull bool) bool {
	if !s.cfg.DedupPushes {
		return false
	}
	eff, ok := s.cloneEffective(from)
	if !ok {
		s.cloneDropped.Add(1)
		return true
	}
	if eff < 0 {
		return false
	}
	if last, seen := s.lastPushIter[eff]; seen && iter <= last {
		s.cloneDeduped.Add(1)
		s.reply(from, seq, s.version.Load(), pullVersion, pull)
		return true
	}
	return false
}

// cloneApplied advances the (worker, iter) watermark after a push from this
// sender was actually applied. Kept separate from cloneCheck so pushes that
// fail validation or decoding never poison the watermark.
func (s *Server) cloneApplied(from node.ID, iter int64) {
	if !s.cfg.DedupPushes {
		return
	}
	eff, ok := s.cloneEffective(from)
	if !ok || eff < 0 {
		return
	}
	if s.lastPushIter == nil {
		s.lastPushIter = make(map[int32]int64)
	}
	if last, seen := s.lastPushIter[eff]; !seen || iter > last {
		s.lastPushIter[eff] = iter
	}
}

// cloneEffective resolves a sender to the logical worker index its pushes
// count against: clone slots (>= CloneBase) map through their alias, real
// workers map to themselves. ok=false means an unaliased clone slot;
// eff < 0 means a non-worker sender (never deduped).
func (s *Server) cloneEffective(from node.ID) (eff int32, ok bool) {
	wi := node.WorkerIndex(from)
	if wi < 0 {
		return -1, true
	}
	eff = int32(wi)
	if s.cfg.CloneBase > 0 && eff >= s.cfg.CloneBase {
		target, aliased := s.cloneAlias[eff]
		if !aliased {
			return 0, false
		}
		return target, true
	}
	return eff, true
}

// CloneStats returns clone-dedup counters: duplicate pushes suppressed (and
// re-acknowledged) and unaliased spare-slot pushes dropped. Safe for
// concurrent use.
func (s *Server) CloneStats() (deduped, dropped int64) {
	return s.cloneDeduped.Load(), s.cloneDropped.Load()
}
