package msg

import (
	"time"

	"specsync/internal/wire"
)

// Scheme-switching protocol messages. The scheduler moves the fleet's gate
// (scheme.Gate) mid-run by broadcasting SchemeSwitch: each worker applies the
// new bound at its next iteration boundary, keyed by a monotonically
// increasing scheme epoch so stale or duplicated switches are ignored. The
// message carries the released clock the scheduler rebuilt for the incoming
// gate, so a worker parked at the outgoing gate can decide immediately
// whether it may proceed. NotifyV2 replaces Notify on runs with a gate policy
// or a straggler plan: it additionally reports the worker's own work span —
// pull+compute+push, excluding gate waits — giving the straggler detector a
// signal that is independent of how tightly the active gate synchronizes the
// fleet.
//
// Kind values are part of the wire format; never renumber them.
const (
	KindSchemeSwitch wire.Kind = 33
	KindNotifyV2     wire.Kind = 34
)

// SchemeSwitch atomically retargets a worker onto a new gate at its next
// iteration boundary.
type SchemeSwitch struct {
	Epoch    int64         // scheme epoch; workers keep the highest seen
	Bound    int64         // the incoming gate's staleness bound (scheme.Unbounded for ASP)
	Quorum   float64       // the incoming gate's quorum fraction, in (0, 1]
	Released int64         // released clock baseline
	Reason   string        // human-readable trigger, for traces and /clusterz
	At       time.Duration // scheduler virtual/wall offset when sent (informational)
}

// Kind implements wire.Message.
func (m *SchemeSwitch) Kind() wire.Kind { return KindSchemeSwitch }

// Encode implements wire.Message.
func (m *SchemeSwitch) Encode(w *wire.Writer) {
	w.Varint(m.Epoch)
	w.Varint(m.Bound)
	w.Float64(m.Quorum)
	w.Varint(m.Released)
	w.String(m.Reason)
	w.Duration(m.At)
}

// Decode implements wire.Message.
func (m *SchemeSwitch) Decode(r *wire.Reader) {
	m.Epoch = r.Varint()
	m.Bound = r.Varint()
	m.Quorum = r.Float64()
	m.Released = r.Varint()
	m.Reason = r.String()
	m.At = r.Duration()
}

// NotifyV2 is Notify plus the worker's self-measured work span for the
// iteration just completed.
type NotifyV2 struct {
	Iter int64         // iteration just completed
	Span time.Duration // gate-exit → push-acked duration (no gate waits)
}

// Kind implements wire.Message.
func (m *NotifyV2) Kind() wire.Kind { return KindNotifyV2 }

// Encode implements wire.Message.
func (m *NotifyV2) Encode(w *wire.Writer) {
	w.Varint(m.Iter)
	w.Duration(m.Span)
}

// Decode implements wire.Message.
func (m *NotifyV2) Decode(r *wire.Reader) {
	m.Iter = r.Varint()
	m.Span = r.Duration()
}
