package des

import (
	"sync"
	"testing"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

const ackKind wire.Kind = 101

// ack is 20 bytes on the wire with its kind prefix, the size of the control
// messages that make up most of a simulated run's events. Its fields are
// unexported so that recycling one costs nothing in race builds either (the
// poisoning there reads exported fields through reflection, which allocates).
type ack struct {
	iter, version uint64
	shard         uint16
}

func (a *ack) Kind() wire.Kind { return ackKind }
func (a *ack) Encode(w *wire.Writer) {
	w.Uint64(a.iter)
	w.Uint64(a.version)
	w.Uint16(a.shard)
}
func (a *ack) Decode(r *wire.Reader) {
	a.iter = r.Uint64()
	a.version = r.Uint64()
	a.shard = r.Uint16()
}

var ackPool sync.Pool

// ackReg registers ack, recycled through a pool or not.
func ackReg(pooled bool) *wire.Registry {
	e := wire.RegistryEntry{Kind: ackKind, Name: "ack", New: func() wire.Message { return &ack{} }}
	if pooled {
		e.Pool = &ackPool
	}
	return wire.NewRegistry([]wire.RegistryEntry{e})
}

// bouncer sends every ack it receives straight back; with serve set it also
// opens the exchange from Init.
type bouncer struct {
	ctx   node.Context
	out   ack
	serve node.ID
}

func (n *bouncer) Init(ctx node.Context) {
	n.ctx = ctx
	if n.serve != "" {
		ctx.Send(n.serve, &n.out)
	}
}

func (n *bouncer) Receive(from node.ID, m wire.Message) {
	n.out.iter = m.(*ack).iter + 1
	n.ctx.Send(from, &n.out)
}

// pingPongSim is workers nodes each keeping one ack in flight to and from a
// single server, through the bandwidth and jitter model.
func pingPongSim(tb testing.TB, workers int, pooled bool) *Sim {
	tb.Helper()
	s, err := New(Config{Seed: 1, Registry: ackReg(pooled), Net: NetModel{
		Latency: time.Millisecond, Jitter: 3 * time.Millisecond, BytesPerSec: 1e6,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.AddNode("server/0", &bouncer{}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := s.AddNode(node.WorkerID(i), &bouncer{serve: "server/0"}); err != nil {
			tb.Fatal(err)
		}
	}
	s.Init()
	return s
}

// ticker re-arms its own timer every time it fires.
type ticker struct {
	ctx    node.Context
	period time.Duration
	tick   func()
}

func (n *ticker) Init(ctx node.Context) {
	n.ctx = ctx
	n.tick = func() { n.ctx.After(n.period, n.tick) }
	n.tick()
}
func (n *ticker) Receive(node.ID, wire.Message) {}

// timerSim is count nodes with one armed timer each, at mixed periods.
func timerSim(tb testing.TB, count int) *Sim {
	tb.Helper()
	s, err := New(Config{Seed: 1, Registry: reg()})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < count; i++ {
		period := time.Duration(1+i%7)*time.Millisecond + time.Duration(i)*time.Microsecond
		if err := s.AddNode(node.WorkerID(i), &ticker{period: period}); err != nil {
			tb.Fatal(err)
		}
	}
	s.Init()
	return s
}

func benchSteps(b *testing.B, s *Sim) {
	for i := 0; i < 4096; i++ { // the slab, the heap and the pools reach their working size
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("simulation ran dry")
		}
	}
}

// BenchmarkSimSendDeliver: one op is one Step of a 512-worker ping-pong, that
// is one delivery (pop, decode, Receive) and the send it triggers (encode,
// network model, push).
func BenchmarkSimSendDeliver(b *testing.B) { benchSteps(b, pingPongSim(b, 512, false)) }

// BenchmarkSimTimer: one op fires one of 512 armed timers and arms the next.
func BenchmarkSimTimer(b *testing.B) { benchSteps(b, timerSim(b, 512)) }
