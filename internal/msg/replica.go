package msg

import "specsync/internal/wire"

// Replication protocol messages (internal/replica + internal/ps replica
// mode). Scheduler replication is a simplified Raft: standbys hold elections
// with VoteReq/VoteResp, the leader replicates its full durable snapshot to
// every standby with ReplState (which doubles as the leader heartbeat), and
// a newly elected leader redirects workers with LeaderAnnounce. Shard
// replication is primary-backup: the primary forwards every applied push to
// its backups as a version-stamped ReplApply, which backups replay in strict
// version order.
//
// Kind values are part of the wire format; never renumber them.
const (
	KindLeaderAnnounce wire.Kind = 28
	KindVoteReq        wire.Kind = 29
	KindVoteResp       wire.Kind = 30
	KindReplState      wire.Kind = 31
	KindReplApply      wire.Kind = 32
)

// LeaderAnnounce redirects workers to a newly elected scheduler incarnation.
// Term is the winning election term; Gen the scheduler generation the
// embedded incarnation serves (workers treat it like a SchedulerHello
// generation bump, but adopt the sender as their scheduler address).
type LeaderAnnounce struct {
	Term int64
	Gen  int64
}

// Kind implements wire.Message.
func (m *LeaderAnnounce) Kind() wire.Kind { return KindLeaderAnnounce }

// Encode implements wire.Message.
func (m *LeaderAnnounce) Encode(w *wire.Writer) {
	w.Varint(m.Term)
	w.Varint(m.Gen)
}

// Decode implements wire.Message.
func (m *LeaderAnnounce) Decode(r *wire.Reader) {
	m.Term = r.Varint()
	m.Gen = r.Varint()
}

// VoteReq asks a standby for its vote in election Term. Index is the
// candidate's replicated-log position (last snapshot index it holds); a
// standby refuses candidates whose log is behind its own, so the winner
// always holds the freshest replicated scheduler state.
type VoteReq struct {
	Term  int64
	Index int64
}

// Kind implements wire.Message.
func (m *VoteReq) Kind() wire.Kind { return KindVoteReq }

// Encode implements wire.Message.
func (m *VoteReq) Encode(w *wire.Writer) {
	w.Varint(m.Term)
	w.Varint(m.Index)
}

// Decode implements wire.Message.
func (m *VoteReq) Decode(r *wire.Reader) {
	m.Term = r.Varint()
	m.Index = r.Varint()
}

// VoteResp answers a VoteReq. Granted is the vote; Term echoes the election
// term so stale responses from earlier elections are discarded.
type VoteResp struct {
	Term    int64
	Granted bool
}

// Kind implements wire.Message.
func (m *VoteResp) Kind() wire.Kind { return KindVoteResp }

// Encode implements wire.Message.
func (m *VoteResp) Encode(w *wire.Writer) {
	w.Varint(m.Term)
	w.Bool(m.Granted)
}

// Decode implements wire.Message.
func (m *VoteResp) Decode(r *wire.Reader) {
	m.Term = r.Varint()
	m.Granted = r.Bool()
}

// ReplState replicates the leader's durable scheduler state to a standby and
// doubles as the leader liveness heartbeat. Snap is a core.SchedulerSnapshot
// in its WriteTo encoding (this package cannot import internal/core); Index
// is a monotonically increasing log position so standbys keep only the
// newest snapshot even if the network reorders ships.
type ReplState struct {
	Term  int64
	Index int64
	Snap  []byte
}

// Kind implements wire.Message.
func (m *ReplState) Kind() wire.Kind { return KindReplState }

// Encode implements wire.Message.
func (m *ReplState) Encode(w *wire.Writer) {
	w.Varint(m.Term)
	w.Varint(m.Index)
	w.Bytes2(m.Snap)
}

// Decode implements wire.Message.
func (m *ReplState) Decode(r *wire.Reader) {
	m.Term = r.Varint()
	m.Index = r.Varint()
	m.Snap = r.Bytes()
}

// ReplApply body tags.
const (
	// ReplBodySparse: Idx/Grad carry a sparse gradient (PushReq sparse path).
	ReplBodySparse uint8 = 0
	// ReplBodyDense: Dense carries a dense gradient (PushReq dense path).
	ReplBodyDense uint8 = 1
	// ReplBodyCodec: Codec/Payload carry an encoded block (PushReqV2 path).
	ReplBodyCodec uint8 = 2
)

// ReplApply forwards one applied push from a shard primary to a backup.
// Version is the primary's parameter version after the apply; the backup
// replays ReplApplies in strict version order (buffering gaps) and stamps
// its optimizer with Version-1 before applying, so its parameter and
// momentum state stay byte-identical to the primary's. Worker/Iter identify
// the logical push for duplicate suppression across a promotion. Body
// selects which gradient representation rides along, mirroring
// PushReq/PushReqV2.
type ReplApply struct {
	Version int64
	Worker  int32
	Iter    int64
	Body    uint8
	Idx     []int32   // ReplBodySparse
	Grad    []float64 // ReplBodySparse
	Dense   []float64 // ReplBodyDense
	Codec   uint8     // ReplBodyCodec: codec.ID of Payload
	Payload []byte    // ReplBodyCodec
}

// Kind implements wire.Message.
func (m *ReplApply) Kind() wire.Kind { return KindReplApply }

// Encode implements wire.Message.
func (m *ReplApply) Encode(w *wire.Writer) {
	w.Varint(m.Version)
	w.Varint(int64(m.Worker))
	w.Varint(m.Iter)
	w.Uint8(m.Body)
	switch m.Body {
	case ReplBodySparse:
		w.Ints32(m.Idx)
		w.Float64s(m.Grad)
	case ReplBodyDense:
		w.Float64s(m.Dense)
	default:
		w.Uint8(m.Codec)
		w.Bytes2(m.Payload)
	}
}

// Decode implements wire.Message.
func (m *ReplApply) Decode(r *wire.Reader) {
	m.Version = r.Varint()
	m.Worker = int32(r.Varint())
	m.Iter = r.Varint()
	m.Body = r.Uint8()
	switch m.Body {
	case ReplBodySparse:
		m.Idx = r.Ints32()
		m.Grad = r.Float64s()
	case ReplBodyDense:
		m.Dense = r.Float64s()
	default:
		m.Codec = r.Uint8()
		m.Payload = r.Bytes()
	}
}
