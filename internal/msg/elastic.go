package msg

import "specsync/internal/wire"

// Elastic-membership protocol messages. A joining worker announces itself
// with JoinReq and is admitted with JoinAck (which doubles as its Start and
// carries the current routing table). Server rebalancing is a scheduler-driven
// handoff: ShardTransfer freezes the involved shards and tells each donor
// what to send where, ShardState carries the migrating parameter segments,
// MigrateDone reports completion, and RoutingUpdate commits the new epoch to
// every live worker and involved server. ScaleCmd is the admin message a
// scale-plan controller injects into the scheduler.
//
// Kind values are part of the wire format; never renumber them.
const (
	KindJoinReq       wire.Kind = 20
	KindJoinAck       wire.Kind = 21
	KindRoutingUpdate wire.Kind = 22
	KindShardTransfer wire.Kind = 23
	KindShardState    wire.Kind = 24
	KindMigrateDone   wire.Kind = 25
	KindScaleCmd      wire.Kind = 26
)

// JoinReq announces a new worker to the scheduler. The worker sends it from
// Init (instead of waiting for Start) and retries until acked.
type JoinReq struct{}

// Kind implements wire.Message.
func (m *JoinReq) Kind() wire.Kind { return KindJoinReq }

// Encode implements wire.Message.
func (m *JoinReq) Encode(w *wire.Writer) {}

// Decode implements wire.Message.
func (m *JoinReq) Decode(r *wire.Reader) {}

// JoinAck admits a worker: it carries the committed routing table and the
// gate's released clock. The joiner begins at that iteration and adopts it
// as released, so it never drags the gate backwards.
type JoinAck struct {
	Epoch int64
	Lo    []int32
	Hi    []int32
	Srv   []int32
	Clock int64
}

// Kind implements wire.Message.
func (m *JoinAck) Kind() wire.Kind { return KindJoinAck }

// Encode implements wire.Message.
func (m *JoinAck) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Ints32(m.Lo)
	w.Ints32(m.Hi)
	w.Ints32(m.Srv)
	w.Varint(m.Clock)
}

// Decode implements wire.Message.
func (m *JoinAck) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.Lo = r.Ints32()
	m.Hi = r.Ints32()
	m.Srv = r.Ints32()
	m.Clock = r.Varint()
}

// RoutingUpdate commits a new routing epoch. Workers re-route (and re-issue
// any pull/push that raced the migration); a frozen server either adopts its
// staged range or learns it has been retired.
type RoutingUpdate struct {
	Epoch int64
	Lo    []int32
	Hi    []int32
	Srv   []int32
}

// Kind implements wire.Message.
func (m *RoutingUpdate) Kind() wire.Kind { return KindRoutingUpdate }

// Encode implements wire.Message.
func (m *RoutingUpdate) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Ints32(m.Lo)
	w.Ints32(m.Hi)
	w.Ints32(m.Srv)
}

// Decode implements wire.Message.
func (m *RoutingUpdate) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.Lo = r.Ints32()
	m.Hi = r.Ints32()
	m.Srv = r.Ints32()
}

// ShardTransfer starts a handoff on one server: freeze, copy [KeepLo,KeepHi)
// of the current range into the staged new range [NewLo,NewHi), send each
// Send segment to its receiving server, then wait for Expect incoming
// ShardState segments. HasNew=false means the server is being drained and
// will be retired at commit. The scheduler precomputes every segment so
// servers stay dumb.
type ShardTransfer struct {
	Epoch          int64
	HasNew         bool
	NewLo, NewHi   int64
	KeepLo, KeepHi int64 // KeepLo==KeepHi: nothing kept
	SendLo         []int32
	SendHi         []int32
	SendTo         []int32
	Expect         int64
}

// Kind implements wire.Message.
func (m *ShardTransfer) Kind() wire.Kind { return KindShardTransfer }

// Encode implements wire.Message.
func (m *ShardTransfer) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Bool(m.HasNew)
	w.Varint(m.NewLo)
	w.Varint(m.NewHi)
	w.Varint(m.KeepLo)
	w.Varint(m.KeepHi)
	w.Ints32(m.SendLo)
	w.Ints32(m.SendHi)
	w.Ints32(m.SendTo)
	w.Varint(m.Expect)
}

// Decode implements wire.Message.
func (m *ShardTransfer) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.HasNew = r.Bool()
	m.NewLo = r.Varint()
	m.NewHi = r.Varint()
	m.KeepLo = r.Varint()
	m.KeepHi = r.Varint()
	m.SendLo = r.Ints32()
	m.SendHi = r.Ints32()
	m.SendTo = r.Ints32()
	m.Expect = r.Varint()
}

// ShardState carries one migrating parameter segment [Lo,Hi) from a donor to
// a receiving server, encoded through the codec payload path (raw codec:
// migrations must be lossless).
type ShardState struct {
	Epoch   int64
	Lo, Hi  int64
	Version int64
	Codec   uint8 // codec.ID of Payload
	Payload []byte
}

// Kind implements wire.Message.
func (m *ShardState) Kind() wire.Kind { return KindShardState }

// Encode implements wire.Message.
func (m *ShardState) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Varint(m.Lo)
	w.Varint(m.Hi)
	w.Varint(m.Version)
	w.Uint8(m.Codec)
	w.Bytes2(m.Payload)
}

// Decode implements wire.Message.
func (m *ShardState) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.Lo = r.Varint()
	m.Hi = r.Varint()
	m.Version = r.Varint()
	m.Codec = r.Uint8()
	m.Payload = r.Bytes()
}

// MigrateDone tells the scheduler one server finished its part of the
// handoff (all expected segments staged). Bytes counts received payload
// bytes, so the scheduler can account total migration traffic.
type MigrateDone struct {
	Epoch int64
	Bytes int64
}

// Kind implements wire.Message.
func (m *MigrateDone) Kind() wire.Kind { return KindMigrateDone }

// Encode implements wire.Message.
func (m *MigrateDone) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Varint(m.Bytes)
}

// Decode implements wire.Message.
func (m *MigrateDone) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.Bytes = r.Varint()
}

// ScaleCmd ops.
const (
	// ScaleRetireWorker retires worker Node: the scheduler stops it and
	// removes it from membership.
	ScaleRetireWorker uint8 = 1
	// ScaleSetServers rebalances parameter state onto exactly the server
	// slots listed in Servers (a migration if the set changed).
	ScaleSetServers uint8 = 2
)

// ScaleCmd is the admin command a scale-plan controller injects into the
// scheduler. It rides the message path so both the DES and live runtimes
// apply scale events inside the scheduler's own execution context.
type ScaleCmd struct {
	Op      uint8
	Node    int32
	Servers []int32
}

// Kind implements wire.Message.
func (m *ScaleCmd) Kind() wire.Kind { return KindScaleCmd }

// Encode implements wire.Message.
func (m *ScaleCmd) Encode(w *wire.Writer) {
	w.Uint8(m.Op)
	w.Varint(int64(m.Node))
	w.Ints32(m.Servers)
}

// Decode implements wire.Message.
func (m *ScaleCmd) Decode(r *wire.Reader) {
	m.Op = r.Uint8()
	m.Node = int32(r.Varint())
	m.Servers = r.Ints32()
}
