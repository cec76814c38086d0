package msg

import "specsync/internal/wire"

// Straggler-mitigation protocol messages (backup-worker task cloning). When
// the scheduler flags a sustained straggler and has a spare worker slot, it
// starts a clone: a worker built with the straggler's data-shard index but
// its own node ID. CloneCtl seeds the clone with the straggler's current
// iteration and the released clock; CloneNotice tells every parameter server
// that the clone slot impersonates the straggler's worker index, so the
// (worker, iter) push dedup treats the pair as one logical worker — first
// push wins, the loser is acked but not applied, and the model digest is
// unaffected by who wins.
//
// Kind values are part of the wire format; never renumber them.
const (
	KindCloneCtl    wire.Kind = 35
	KindCloneNotice wire.Kind = 36
)

// CloneCtl starts an idle backup worker as a clone of a straggler. StartIter
// is the straggler's next iteration (the clone mirrors forward, never
// re-runs history); Released seeds the clone's gate so it does not park
// behind a release sent before it existed.
type CloneCtl struct {
	StartIter int64
	Released  int64
}

var _ wire.Message = (*CloneCtl)(nil)

// Kind implements wire.Message.
func (m *CloneCtl) Kind() wire.Kind { return KindCloneCtl }

// Encode implements wire.Message.
func (m *CloneCtl) Encode(w *wire.Writer) {
	w.Varint(m.StartIter)
	w.Varint(m.Released)
}

// Decode implements wire.Message.
func (m *CloneCtl) Decode(r *wire.Reader) {
	m.StartIter = r.Varint()
	m.Released = r.Varint()
}

// CloneNotice aliases a clone's worker slot to the straggler it mirrors on
// one parameter server. Sent to every live server before the clone starts
// (and resent if a clone is retargeted); Target < 0 clears the alias.
type CloneNotice struct {
	Slot   int32
	Target int32
}

var _ wire.Message = (*CloneNotice)(nil)

// Kind implements wire.Message.
func (m *CloneNotice) Kind() wire.Kind { return KindCloneNotice }

// Encode implements wire.Message.
func (m *CloneNotice) Encode(w *wire.Writer) {
	w.Varint(int64(m.Slot))
	w.Varint(int64(m.Target))
}

// Decode implements wire.Message.
func (m *CloneNotice) Decode(r *wire.Reader) {
	m.Slot = int32(r.Varint())
	m.Target = int32(r.Varint())
}
