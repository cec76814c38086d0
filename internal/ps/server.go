// Package ps implements the parameter-server shard. Servers are
// deliberately dumb, exactly as in the paper (Sec. V-B: "Servers are
// agnostic to speculative synchronization... their behaviors remain the same
// as in the stock MXNet"): they answer pulls with their current parameter
// block and apply pushed gradients through the server-side optimizer,
// answering each push with that block too when the push asks for it. All
// SpecSync logic lives in the scheduler and workers.
package ps

import (
	"fmt"
	"sync/atomic"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/sparse"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// Range is a half-open interval [Lo, Hi) of flat parameter indices owned by
// one shard.
type Range struct {
	Lo, Hi int
}

// Len returns the number of parameters in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// ShardRanges splits dim parameters into n contiguous, near-equal ranges.
func ShardRanges(dim, n int) ([]Range, error) {
	if n < 1 || dim < n {
		return nil, fmt.Errorf("ps: cannot split %d params into %d shards", dim, n)
	}
	out := make([]Range, n)
	per := dim / n
	extra := dim % n
	lo := 0
	for i := range out {
		size := per
		if i < extra {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out, nil
}

// StalenessObserver receives the measured staleness of each applied push:
// the number of other updates applied to the shard between the worker's pull
// and its push. It feeds the staleness-distribution analyses.
type StalenessObserver interface {
	ObserveStaleness(worker node.ID, staleness int64, at time.Time)
}

// Config configures one server shard.
type Config struct {
	// Range is the parameter slice this shard owns.
	Range Range
	// Init is the initial parameter block (length Range.Len()). The cluster
	// harness slices one master init vector across shards so every scheme
	// starts from identical parameters.
	Init tensor.Vec
	// Optimizer applies pushed gradients. Required.
	Optimizer *optimizer.SGD
	// Staleness, if non-nil, observes per-push staleness.
	Staleness StalenessObserver
	// Obs, if non-nil, receives pull/push counters and the shard version.
	Obs *obs.ServerObs
	// Replica marks this shard instance as a backup: it drops worker data
	// traffic and only replays the primary's ReplApply stream until a
	// promotion (Promote) turns it into the serving primary.
	Replica bool
	// DedupPushes enables clone-mitigation push dedup (see clone.go): the
	// first push to arrive for a logical (worker, iter) is applied, later
	// duplicates are acknowledged without touching the parameters. Off by
	// default so unmitigated runs keep their byte-identical digests.
	DedupPushes bool
	// CloneBase is the first spare worker slot: pushes from slots >=
	// CloneBase are clone traffic and resolve through CloneNotice aliases
	// (unaliased spare pushes are dropped). Only read when DedupPushes is on.
	CloneBase int32
	// DeltaPull is ignored: a shard answers every worker that speaks the
	// codec path by the reply rule of replies at sparse cost (replies.go).
	//
	// Deprecated: kept only while the benchmark ledger's assembly sets it.
	DeltaPull bool
	// CodecStats, if non-nil, receives encode-side compression accounting
	// for codec replies.
	CodecStats *codec.Stats
}

// Server is the shard state machine. The counters are atomic so live-mode
// monitoring goroutines (status tickers, /healthz) can read them while the
// shard's event loop applies updates.
type Server struct {
	ctx     node.Context
	cfg     Config
	params  tensor.Vec
	version atomic.Int64 // number of pushes applied
	pulls   atomic.Int64
	pushes  atomic.Int64

	// replies is the change log and per-worker record behind replies at
	// sparse cost. Lost on restart, which degrades each worker's next reply
	// to a full block.
	replies deltaReplies
	// grad receives decoded top-k push payloads, the entries they carry;
	// scratch receives the dense blocks of the other push codecs.
	grad    sparse.Vec
	scratch tensor.Vec
	// resp is the sender-held reply to pulls and pushes, refilled for every
	// send: Send encodes before it returns (DESIGN "Message lifetime").
	resp msg.PullResp

	// Replication state (see replica.go). backups receives forwarded applies
	// on the primary; pendingRepl parks reordered ReplApplies on a backup;
	// lastIter is the replicated per-worker duplicate-suppression watermark.
	backups       []node.ID
	pendingRepl   map[int64]*msg.ReplApply
	lastIter      map[int32]int64
	replForwarded atomic.Int64
	replApplied   atomic.Int64
	replDeduped   atomic.Int64

	// Clone-dedup state (see clone.go): cloneAlias maps spare slots onto
	// their straggling targets; lastPushIter is the per-logical-worker
	// applied-iteration watermark.
	cloneAlias   map[int32]int32
	lastPushIter map[int32]int64
	cloneDeduped atomic.Int64
	cloneDropped atomic.Int64
}

var _ node.Handler = (*Server)(nil)

// New validates cfg and builds the shard.
func New(cfg Config) (*Server, error) {
	if cfg.Range.Len() < 1 {
		return nil, fmt.Errorf("ps: empty shard range %+v", cfg.Range)
	}
	if len(cfg.Init) != cfg.Range.Len() {
		return nil, fmt.Errorf("ps: init length %d != range %d", len(cfg.Init), cfg.Range.Len())
	}
	if cfg.Optimizer == nil {
		return nil, fmt.Errorf("ps: nil optimizer")
	}
	return &Server{cfg: cfg, params: cfg.Init.Clone()}, nil
}

// Init implements node.Handler.
func (s *Server) Init(ctx node.Context) { s.ctx = ctx }

// Receive implements node.Handler.
func (s *Server) Receive(from node.ID, m wire.Message) {
	switch req := m.(type) {
	case *msg.PullReq, *msg.PushReq, *msg.PullReqV2, *msg.PushReqV2:
		if s.cfg.Replica {
			// A backup replica: drop data traffic. Workers retry until a
			// promotion puts a serving primary back.
			return
		}
		switch req := m.(type) {
		case *msg.PullReq:
			s.sendBlock(from, req.Seq, s.version.Load(), -1, false)
		case *msg.PushReq:
			s.apply(from, req)
		case *msg.PullReqV2:
			s.replies.speaksCodec(from)
			s.sendBlock(from, req.Seq, s.version.Load(), req.Have, true)
		case *msg.PushReqV2:
			s.replies.speaksCodec(from)
			s.applyV2(from, req)
		}
	case *msg.CloneNotice:
		s.handleCloneNotice(req)
	case *msg.ReplApply:
		s.handleReplApply(req)
	case *msg.Stop:
		// Servers are stateless with respect to the training loop; nothing
		// to wind down.
	default:
		s.ctx.Logf("server: unexpected message %T from %s", m, from)
	}
}

func (s *Server) apply(from node.ID, req *msg.PushReq) {
	if s.dedupPush(from, req.Seq, req.Iter, req.PullVersion, req.Pull) {
		return
	}
	if s.cloneCheck(from, req.Seq, req.Iter, req.PullVersion, req.Pull) {
		return
	}
	// Key the LR schedule on this shard's total push count.
	s.cfg.Optimizer.SetStep(s.version.Load())
	if req.IsSparse {
		if err := req.Sparse().Validate(s.cfg.Range.Len()); err != nil {
			s.ctx.Logf("server: push from %s: %v; dropped", from, err)
			return
		}
		s.cfg.Optimizer.ApplySparse(s.params, req.Sparse())
		s.noteSparse(req.SparseIdx)
	} else {
		if len(req.Dense) != s.cfg.Range.Len() {
			s.ctx.Logf("server: push from %s has %d values, want %d; dropped",
				from, len(req.Dense), s.cfg.Range.Len())
			return
		}
		s.cfg.Optimizer.ApplyDense(s.params, req.Dense)
	}
	s.cloneApplied(from, req.Iter)
	s.acknowledge(from, req.Seq, req.PullVersion, req.Pull)
	if wi := node.WorkerIndex(from); wi >= 0 && s.replicated() {
		s.noteApplied(int32(wi), req.Iter)
		s.forward(int32(wi), req.Iter, func() *msg.ReplApply {
			if req.IsSparse {
				return &msg.ReplApply{Body: msg.ReplBodySparse, Idx: req.SparseIdx, Grad: req.SparseVal}
			}
			return &msg.ReplApply{Body: msg.ReplBodyDense, Dense: req.Dense}
		})
	}
}

// acknowledge finishes one applied push: version bump, staleness accounting,
// and the reply. Shared by the v1 and codec (v2) apply paths.
func (s *Server) acknowledge(from node.ID, seq uint64, pullVersion int64, pull bool) {
	version := s.version.Add(1)
	s.pushes.Add(1)
	staleness := max(version-1-pullVersion, 0) // pushes applied since the pull
	s.cfg.Obs.Push(version, staleness)
	if s.cfg.Staleness != nil {
		s.cfg.Staleness.ObserveStaleness(from, staleness, s.ctx.Now())
	}
	s.reply(from, seq, version, pullVersion, pull)
}

// reply answers a push: with the block when the push asked for one (sendBlock,
// against the block at have, the push's PullVersion), else with the held
// PullResp carrying just Seq and Version.
func (s *Server) reply(to node.ID, seq uint64, version, have int64, withBlock bool) {
	if withBlock {
		s.sendBlock(to, seq, version, have, false)
		return
	}
	s.resp = msg.PullResp{Seq: seq, Version: version}
	s.ctx.Send(to, &s.resp)
}

// applyV2 applies a codec-tagged push payload through the same optimizer
// paths as v1 pushes.
func (s *Server) applyV2(from node.ID, req *msg.PushReqV2) {
	id := codec.ID(req.Codec)
	if id == codec.IDDelta {
		// Delta is a pull-side codec: decoding it needs a base the server
		// does not have for pushes.
		s.ctx.Logf("server: push from %s uses pull-only codec %s; dropped", from, id)
		return
	}
	if s.dedupPush(from, req.Seq, req.Iter, req.PullVersion, req.Pull) {
		return
	}
	if s.cloneCheck(from, req.Seq, req.Iter, req.PullVersion, req.Pull) {
		return
	}
	s.cfg.Optimizer.SetStep(s.version.Load())
	if err := s.applyCodec(id, req.Payload); err != nil {
		s.ctx.Logf("server: push from %s: %v; dropped", from, err)
		return
	}
	if id == codec.IDTopK {
		s.noteSparse(s.grad.Idx)
	}
	s.cloneApplied(from, req.Iter)
	s.acknowledge(from, req.Seq, req.PullVersion, req.Pull)
	if wi := node.WorkerIndex(from); wi >= 0 && s.replicated() {
		s.noteApplied(int32(wi), req.Iter)
		s.forward(int32(wi), req.Iter, func() *msg.ReplApply {
			return &msg.ReplApply{Body: msg.ReplBodyCodec, Codec: req.Codec, Payload: req.Payload}
		})
	}
}

// applyCodec decodes a push payload and applies it, a top-k payload as the
// entries it carries (bit-identical to applying its dense decode); a payload
// that does not decode leaves the shard untouched.
func (s *Server) applyCodec(id codec.ID, payload []byte) (err error) {
	if id == codec.IDTopK {
		if s.grad, err = codec.DecodeTopK(payload, s.cfg.Range.Len(), s.grad); err == nil {
			s.cfg.Optimizer.ApplySparse(s.params, s.grad)
		}
		return err
	}
	if s.scratch == nil {
		s.scratch = tensor.NewVec(s.cfg.Range.Len())
	}
	if err = codec.DecodePayload(id, payload, s.scratch); err == nil {
		s.cfg.Optimizer.ApplyDense(s.params, s.scratch)
	}
	return err
}

// Params returns the live parameter block. Probes under the single-threaded
// simulator read it directly; it must not be mutated by callers.
func (s *Server) Params() tensor.Vec { return s.params }

// Version returns the number of pushes applied so far. Safe for concurrent
// use.
func (s *Server) Version() int64 { return s.version.Load() }

// Range returns the shard's parameter range.
func (s *Server) Range() Range { return s.cfg.Range }

// Stats returns cumulative pull and push counts; a push reply that carried
// the block counts as a pull. Safe for concurrent use.
func (s *Server) Stats() (pulls, pushes int64) { return s.pulls.Load(), s.pushes.Load() }
