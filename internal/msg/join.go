package msg

import "specsync/internal/wire"

// Membership messages. A worker that enters a running cluster (a rebalance
// replacement on a spare slot) announces itself with JoinReq and is admitted
// with JoinAck, which doubles as its Start and carries the routing table.
//
// Kind values are part of the wire format; never renumber them.
const (
	KindJoinReq wire.Kind = 20
	KindJoinAck wire.Kind = 21
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

// JoinAck admits a worker: it carries the routing table and the gate's
// released clock. The joiner begins at that iteration and adopts it as
// released, so it never drags the gate backwards.
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
