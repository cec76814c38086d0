// Package msg defines every protocol message exchanged between workers,
// parameter-server shards and the SpecSync scheduler, with hand-rolled wire
// encodings. The protocol follows Algorithm 2 of the paper:
//
//	worker -> server:    PullReq, PushReq
//	server -> worker:    PullResp, PushAck
//	worker -> scheduler: Notify            (after each completed push)
//	scheduler -> worker: ReSync            (abort and re-pull), Start, Stop,
//	                     Release           (the gate's released clock)
//
// Kind values are part of the wire format; never renumber them. Kind 9 (the
// retired BSP barrier release) is reserved.
package msg

import (
	"sync"

	"specsync/internal/sparse"
	"specsync/internal/wire"
)

// Message kinds. Gaps are reserved for future extensions.
const (
	KindPullReq         wire.Kind = 1
	KindPullResp        wire.Kind = 2
	KindPushReq         wire.Kind = 3
	KindPushAck         wire.Kind = 4
	KindNotify          wire.Kind = 5
	KindReSync          wire.Kind = 6
	KindStart           wire.Kind = 7
	KindStop            wire.Kind = 8
	KindRelease         wire.Kind = 10
	KindWorkerReady     wire.Kind = 11
	KindPushNotice      wire.Kind = 12
	KindHeartbeat       wire.Kind = 13
	KindSchedulerHello  wire.Kind = 14
	KindStateReport     wire.Kind = 15
	KindSchedulerBeacon wire.Kind = 16
	// Codec-tagged data-path layouts (internal/codec). The v1 kinds above
	// stay untouched so the default raw codec remains byte-identical; never
	// reuse a Kind for a different layout.
	KindPullReqV2  wire.Kind = 17
	KindPullRespV2 wire.Kind = 18
	KindPushReqV2  wire.Kind = 19
)

// PullReq asks a server shard for its current parameter block.
type PullReq struct {
	// Seq is the worker's pull sequence number; responses carrying a stale
	// Seq (from before an abort) are discarded by the worker.
	Seq uint64
}

var _ wire.Message = (*PullReq)(nil)

// Kind implements wire.Message.
func (m *PullReq) Kind() wire.Kind { return KindPullReq }

// Encode implements wire.Message.
func (m *PullReq) Encode(w *wire.Writer) { w.Uint64(m.Seq) }

// Decode implements wire.Message.
func (m *PullReq) Decode(r *wire.Reader) { m.Seq = r.Uint64() }

// PullResp returns a shard's parameters.
type PullResp struct {
	Seq     uint64
	Version int64 // shard's push counter at read time; used for staleness
	Values  []float64
}

var _ wire.Message = (*PullResp)(nil)

// Kind implements wire.Message.
func (m *PullResp) Kind() wire.Kind { return KindPullResp }

// Encode implements wire.Message.
func (m *PullResp) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Version)
	w.Float64s(m.Values)
}

// Decode implements wire.Message.
func (m *PullResp) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Version = r.Varint()
	m.Values = r.Float64sInto(m.Values)
}

// PushReq delivers a gradient block for one shard. Exactly one of Dense or
// Sparse is populated (Sparse for matrix factorization).
type PushReq struct {
	Seq         uint64 // worker's push sequence, echoed in PushAck
	Iter        int64  // worker's iteration number
	PullVersion int64  // shard version the gradient was computed against
	Dense       []float64
	SparseIdx   []int32
	SparseVal   []float64
	IsSparse    bool
}

var _ wire.Message = (*PushReq)(nil)

// Kind implements wire.Message.
func (m *PushReq) Kind() wire.Kind { return KindPushReq }

// Encode implements wire.Message.
func (m *PushReq) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Iter)
	w.Varint(m.PullVersion)
	w.Bool(m.IsSparse)
	if m.IsSparse {
		w.Ints32(m.SparseIdx)
		w.Float64s(m.SparseVal)
	} else {
		w.Float64s(m.Dense)
	}
}

// Decode implements wire.Message.
func (m *PushReq) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Iter = r.Varint()
	m.PullVersion = r.Varint()
	m.IsSparse = r.Bool()
	if m.IsSparse {
		m.SparseIdx = r.Ints32Into(m.SparseIdx)
		m.SparseVal = r.Float64sInto(m.SparseVal)
		m.Dense = nil
	} else {
		m.Dense = r.Float64sInto(m.Dense)
		m.SparseIdx, m.SparseVal = nil, nil
	}
}

// Sparse returns the sparse payload as a sparse.Vec view.
func (m *PushReq) Sparse() sparse.Vec {
	return sparse.Vec{Idx: m.SparseIdx, Val: m.SparseVal}
}

// PushAck confirms a gradient application.
type PushAck struct {
	Seq       uint64
	Version   int64 // shard version after applying this push
	Staleness int64 // number of pushes applied between the pull and this push
}

var _ wire.Message = (*PushAck)(nil)

// Kind implements wire.Message.
func (m *PushAck) Kind() wire.Kind { return KindPushAck }

// Encode implements wire.Message.
func (m *PushAck) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Version)
	w.Varint(m.Staleness)
}

// Decode implements wire.Message.
func (m *PushAck) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Version = r.Varint()
	m.Staleness = r.Varint()
}

// Notify tells the scheduler a worker finished an iteration (pushed its
// update). It triggers the speculation window for the sender (Algorithm 2).
type Notify struct {
	Iter int64 // iteration just completed
}

var _ wire.Message = (*Notify)(nil)

// Kind implements wire.Message.
func (m *Notify) Kind() wire.Kind { return KindNotify }

// Encode implements wire.Message.
func (m *Notify) Encode(w *wire.Writer) { w.Varint(m.Iter) }

// Decode implements wire.Message.
func (m *Notify) Decode(r *wire.Reader) { m.Iter = r.Varint() }

// ReSync instructs a worker to abort the given iteration and re-pull fresher
// parameters. Workers ignore ReSync for iterations they are no longer
// computing ("if that is not too late yet", paper Sec. IV-A).
type ReSync struct {
	Iter int64 // iteration to abort (the one after the triggering Notify)
}

var _ wire.Message = (*ReSync)(nil)

// Kind implements wire.Message.
func (m *ReSync) Kind() wire.Kind { return KindReSync }

// Encode implements wire.Message.
func (m *ReSync) Encode(w *wire.Writer) { w.Varint(m.Iter) }

// Decode implements wire.Message.
func (m *ReSync) Decode(r *wire.Reader) { m.Iter = r.Varint() }

// Start launches a worker's training loop.
type Start struct{}

var _ wire.Message = (*Start)(nil)

// Kind implements wire.Message.
func (m *Start) Kind() wire.Kind { return KindStart }

// Encode implements wire.Message.
func (m *Start) Encode(*wire.Writer) {}

// Decode implements wire.Message.
func (m *Start) Decode(*wire.Reader) {}

// Stop halts a worker's training loop after the current callback.
type Stop struct{}

var _ wire.Message = (*Stop)(nil)

// Kind implements wire.Message.
func (m *Stop) Kind() wire.Kind { return KindStop }

// Encode implements wire.Message.
func (m *Stop) Encode(*wire.Writer) {}

// Decode implements wire.Message.
func (m *Stop) Decode(*wire.Reader) {}

// Release carries the gate's released clock R (scheme.Gate): a worker may
// start iteration k once k <= R + bound. R never regresses, so a worker keeps
// the highest it has seen and a stale or duplicated Release changes nothing.
type Release struct {
	Clock int64
}

var _ wire.Message = (*Release)(nil)

// Kind implements wire.Message.
func (m *Release) Kind() wire.Kind { return KindRelease }

// Encode implements wire.Message.
func (m *Release) Encode(w *wire.Writer) { w.Varint(m.Clock) }

// Decode implements wire.Message.
func (m *Release) Decode(r *wire.Reader) { m.Clock = r.Varint() }

// WorkerReady reports that a worker finished initialization (live mode uses
// it to gate the Start broadcast).
type WorkerReady struct{}

var _ wire.Message = (*WorkerReady)(nil)

// Kind implements wire.Message.
func (m *WorkerReady) Kind() wire.Kind { return KindWorkerReady }

// Encode implements wire.Message.
func (m *WorkerReady) Encode(*wire.Writer) {}

// Decode implements wire.Message.
func (m *WorkerReady) Decode(*wire.Reader) {}

// PushNotice is used by the decentralized (broadcast) ablation: each worker
// announces its push directly to every peer instead of the scheduler.
type PushNotice struct {
	Iter int64
}

var _ wire.Message = (*PushNotice)(nil)

// Kind implements wire.Message.
func (m *PushNotice) Kind() wire.Kind { return KindPushNotice }

// Encode implements wire.Message.
func (m *PushNotice) Encode(w *wire.Writer) { w.Varint(m.Iter) }

// Decode implements wire.Message.
func (m *PushNotice) Decode(r *wire.Reader) { m.Iter = r.Varint() }

// Heartbeat is a worker's periodic liveness beacon to the scheduler. The
// scheduler treats any message from a worker as proof of life; Heartbeat
// keeps that signal flowing while a worker computes a long iteration (or
// sits at a barrier), so failure detection does not depend on push cadence.
type Heartbeat struct {
	Iter int64 // worker's current iteration (diagnostic)
}

var _ wire.Message = (*Heartbeat)(nil)

// Kind implements wire.Message.
func (m *Heartbeat) Kind() wire.Kind { return KindHeartbeat }

// Encode implements wire.Message.
func (m *Heartbeat) Encode(w *wire.Writer) { w.Varint(m.Iter) }

// Decode implements wire.Message.
func (m *Heartbeat) Decode(r *wire.Reader) { m.Iter = r.Varint() }

// SchedulerHello announces a (re)started scheduler incarnation to every
// worker. Workers answer with a StateReport so the scheduler can rebuild
// barrier/clock/epoch state even from a cold (or stale) checkpoint, and
// workers that degraded to broadcast speculation flip back to the
// centralized path.
type SchedulerHello struct {
	Gen int64 // scheduler incarnation (0 = original process)
}

var _ wire.Message = (*SchedulerHello)(nil)

// Kind implements wire.Message.
func (m *SchedulerHello) Kind() wire.Kind { return KindSchedulerHello }

// Encode implements wire.Message.
func (m *SchedulerHello) Encode(w *wire.Writer) { w.Varint(m.Gen) }

// Decode implements wire.Message.
func (m *SchedulerHello) Decode(r *wire.Reader) { m.Gen = r.Varint() }

// StateReport is a worker's reply to SchedulerHello: enough of its local
// state for a restarted scheduler to rebuild membership, epoch progress and
// the gate's clocks.
type StateReport struct {
	Iter     int64 // completed (pushed) iterations so far
	Pushed   bool  // pushed at least once since the last observed epoch boundary
	Clock    int64 // gate clock (== Iter)
	Waiting  bool  // parked at the gate awaiting a release
	Degraded bool  // was running broadcast-speculation failover when Hello arrived
}

var _ wire.Message = (*StateReport)(nil)

// Kind implements wire.Message.
func (m *StateReport) Kind() wire.Kind { return KindStateReport }

// Encode implements wire.Message.
func (m *StateReport) Encode(w *wire.Writer) {
	w.Varint(m.Iter)
	w.Bool(m.Pushed)
	w.Varint(m.Clock)
	w.Bool(m.Waiting)
	w.Bool(m.Degraded)
}

// Decode implements wire.Message.
func (m *StateReport) Decode(r *wire.Reader) {
	m.Iter = r.Varint()
	m.Pushed = r.Bool()
	m.Clock = r.Varint()
	m.Waiting = r.Bool()
	m.Degraded = r.Bool()
}

// SchedulerBeacon is the scheduler's periodic liveness signal to workers
// (the inverse of Heartbeat). Workers whose scheduler-failure detector has
// gone silent past its timeout enter degraded mode; a beacon carrying a
// newer generation than the worker has seen doubles as a late Hello.
type SchedulerBeacon struct {
	Gen int64
}

var _ wire.Message = (*SchedulerBeacon)(nil)

// Kind implements wire.Message.
func (m *SchedulerBeacon) Kind() wire.Kind { return KindSchedulerBeacon }

// Encode implements wire.Message.
func (m *SchedulerBeacon) Encode(w *wire.Writer) { w.Varint(m.Gen) }

// Decode implements wire.Message.
func (m *SchedulerBeacon) Decode(r *wire.Reader) { m.Gen = r.Varint() }

// PullReqV2 asks a shard for its parameter block under a non-raw pull codec.
// Have lets the shard answer with a delta: it is the version of the block
// the worker last applied for this shard (-1 when it has none, e.g. after a
// restart), so a shard whose per-worker cache matches can resend only the
// changed entries.
type PullReqV2 struct {
	Seq  uint64
	Have int64
}

var _ wire.Message = (*PullReqV2)(nil)

// Kind implements wire.Message.
func (m *PullReqV2) Kind() wire.Kind { return KindPullReqV2 }

// Encode implements wire.Message.
func (m *PullReqV2) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Have)
}

// Decode implements wire.Message.
func (m *PullReqV2) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Have = r.Varint()
}

// PullRespV2 returns a shard's parameters as a codec payload. Base is the
// version the delta was computed against (-1 for a full block); the worker
// drops responses whose Base does not match the block it holds.
type PullRespV2 struct {
	Seq     uint64
	Version int64
	Base    int64
	Codec   uint8 // codec.ID of Payload
	Payload []byte
}

var _ wire.Message = (*PullRespV2)(nil)

// Kind implements wire.Message.
func (m *PullRespV2) Kind() wire.Kind { return KindPullRespV2 }

// Encode implements wire.Message.
func (m *PullRespV2) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Version)
	w.Varint(m.Base)
	w.Uint8(m.Codec)
	w.Bytes2(m.Payload)
}

// Decode implements wire.Message.
func (m *PullRespV2) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Version = r.Varint()
	m.Base = r.Varint()
	m.Codec = r.Uint8()
	m.Payload = r.BytesInto(m.Payload)
}

// PushReqV2 delivers one shard's gradient block as a codec payload (the
// worker's error-feedback residual is already folded in before encoding).
type PushReqV2 struct {
	Seq         uint64
	Iter        int64
	PullVersion int64
	Codec       uint8 // codec.ID of Payload
	Payload     []byte
}

var _ wire.Message = (*PushReqV2)(nil)

// Kind implements wire.Message.
func (m *PushReqV2) Kind() wire.Kind { return KindPushReqV2 }

// Encode implements wire.Message.
func (m *PushReqV2) Encode(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Varint(m.Iter)
	w.Varint(m.PullVersion)
	w.Uint8(m.Codec)
	w.Bytes2(m.Payload)
}

// Decode implements wire.Message.
func (m *PushReqV2) Decode(r *wire.Reader) {
	m.Seq = r.Uint64()
	m.Iter = r.Varint()
	m.PullVersion = r.Varint()
	m.Codec = r.Uint8()
	m.Payload = r.BytesInto(m.Payload)
}

// Pools of the recycled kinds: the four that carry a parameter or gradient
// block on every iteration. A runtime that decoded one hands it back through
// wire.Registry.Recycle after Handler.Receive returns (see node.Handler), and
// the next Decode of the kind refills its slices. ReplApply and ShardState
// carry blocks too but stay unpooled: ps.Server parks them (pendingRepl,
// early) past the Receive that delivered them.
var pullRespPool, pushReqPool, pullRespV2Pool, pushReqV2Pool sync.Pool

// Registry returns a fresh registry covering every protocol message. All
// registries share the recycled kinds' pools.
func Registry() *wire.Registry {
	return wire.NewRegistry([]wire.RegistryEntry{
		{Kind: KindPullReq, Name: "PullReq", New: func() wire.Message { return &PullReq{} }},
		{Kind: KindPullResp, Name: "PullResp", New: func() wire.Message { return &PullResp{} }, Pool: &pullRespPool},
		{Kind: KindPushReq, Name: "PushReq", New: func() wire.Message { return &PushReq{} }, Pool: &pushReqPool},
		{Kind: KindPushAck, Name: "PushAck", New: func() wire.Message { return &PushAck{} }},
		{Kind: KindNotify, Name: "Notify", New: func() wire.Message { return &Notify{} }},
		{Kind: KindReSync, Name: "ReSync", New: func() wire.Message { return &ReSync{} }},
		{Kind: KindStart, Name: "Start", New: func() wire.Message { return &Start{} }},
		{Kind: KindStop, Name: "Stop", New: func() wire.Message { return &Stop{} }},
		{Kind: KindRelease, Name: "Release", New: func() wire.Message { return &Release{} }},
		{Kind: KindWorkerReady, Name: "WorkerReady", New: func() wire.Message { return &WorkerReady{} }},
		{Kind: KindPushNotice, Name: "PushNotice", New: func() wire.Message { return &PushNotice{} }},
		{Kind: KindHeartbeat, Name: "Heartbeat", New: func() wire.Message { return &Heartbeat{} }},
		{Kind: KindSchedulerHello, Name: "SchedulerHello", New: func() wire.Message { return &SchedulerHello{} }},
		{Kind: KindStateReport, Name: "StateReport", New: func() wire.Message { return &StateReport{} }},
		{Kind: KindSchedulerBeacon, Name: "SchedulerBeacon", New: func() wire.Message { return &SchedulerBeacon{} }},
		{Kind: KindPullReqV2, Name: "PullReqV2", New: func() wire.Message { return &PullReqV2{} }},
		{Kind: KindPullRespV2, Name: "PullRespV2", New: func() wire.Message { return &PullRespV2{} }, Pool: &pullRespV2Pool},
		{Kind: KindPushReqV2, Name: "PushReqV2", New: func() wire.Message { return &PushReqV2{} }, Pool: &pushReqV2Pool},
		{Kind: KindJoinReq, Name: "JoinReq", New: func() wire.Message { return &JoinReq{} }},
		{Kind: KindJoinAck, Name: "JoinAck", New: func() wire.Message { return &JoinAck{} }},
		{Kind: KindRoutingUpdate, Name: "RoutingUpdate", New: func() wire.Message { return &RoutingUpdate{} }},
		{Kind: KindShardTransfer, Name: "ShardTransfer", New: func() wire.Message { return &ShardTransfer{} }},
		{Kind: KindShardState, Name: "ShardState", New: func() wire.Message { return &ShardState{} }},
		{Kind: KindMigrateDone, Name: "MigrateDone", New: func() wire.Message { return &MigrateDone{} }},
		{Kind: KindScaleCmd, Name: "ScaleCmd", New: func() wire.Message { return &ScaleCmd{} }},
		{Kind: KindJobMsg, Name: "JobMsg", New: func() wire.Message { return &JobMsg{} }},
		{Kind: KindLeaderAnnounce, Name: "LeaderAnnounce", New: func() wire.Message { return &LeaderAnnounce{} }},
		{Kind: KindVoteReq, Name: "VoteReq", New: func() wire.Message { return &VoteReq{} }},
		{Kind: KindVoteResp, Name: "VoteResp", New: func() wire.Message { return &VoteResp{} }},
		{Kind: KindReplState, Name: "ReplState", New: func() wire.Message { return &ReplState{} }},
		{Kind: KindReplApply, Name: "ReplApply", New: func() wire.Message { return &ReplApply{} }},
		{Kind: KindSchemeSwitch, Name: "SchemeSwitch", New: func() wire.Message { return &SchemeSwitch{} }},
		{Kind: KindNotifyV2, Name: "NotifyV2", New: func() wire.Message { return &NotifyV2{} }},
		{Kind: KindCloneCtl, Name: "CloneCtl", New: func() wire.Message { return &CloneCtl{} }},
		{Kind: KindCloneNotice, Name: "CloneNotice", New: func() wire.Message { return &CloneNotice{} }},
	})
}

// IsControl reports whether a message kind is SpecSync control traffic (as
// opposed to parameter data). The overhead experiments (Fig. 13) break down
// transfer into data vs. control bytes.
func IsControl(k wire.Kind) bool {
	switch k {
	case KindPullReq, KindPullResp, KindPushReq, KindPushAck,
		KindPullReqV2, KindPullRespV2, KindPushReqV2,
		KindShardState, // migrating parameter segments are data, not control
		KindReplApply,  // replicated push payloads are data, not control
		KindJobMsg:     // fleet envelope: wraps only worker→server data traffic
		return false
	default:
		return true
	}
}

// CodecLabeler returns the labeling function codec.Stats uses for the
// bytes-on-wire breakdown: push-request kinds carry the run's push codec
// name, pull-response kinds the pull codec name, and every other kind
// (acks, control traffic) the label "none".
func CodecLabeler(push, pull string) func(wire.Kind) string {
	return func(k wire.Kind) string {
		switch k {
		case KindPushReq, KindPushReqV2:
			return push
		case KindPullResp, KindPullRespV2:
			return pull
		default:
			return "none"
		}
	}
}
