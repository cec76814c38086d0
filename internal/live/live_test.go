package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// pingHandler counts received Notify messages and can echo them back.
type pingHandler struct {
	ctx   node.Context
	mu    sync.Mutex
	seen  []int64
	echo  bool
	inits atomic.Int32
}

func (p *pingHandler) Init(ctx node.Context) {
	p.ctx = ctx
	p.inits.Add(1)
}

func (p *pingHandler) Receive(from node.ID, m wire.Message) {
	if n, ok := m.(*msg.Notify); ok {
		p.mu.Lock()
		p.seen = append(p.seen, n.Iter)
		p.mu.Unlock()
		if p.echo {
			p.ctx.Send(from, &msg.Notify{Iter: n.Iter + 100})
		}
	}
}

func (p *pingHandler) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// newLoopback starts a loopback cluster that the test closes.
func newLoopback(t testing.TB, cfg TCPHostConfig, handlers map[node.ID]node.Handler) *Loopback {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = msg.Registry()
	}
	lb, err := NewLoopback(cfg, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb
}

// initialized returns once id's Init has run, and makes what it wrote
// visible to the caller.
func initialized(lb *Loopback, id node.ID) { lb.Host(id).Do(func() {}) }

func TestQueueFIFOAndClose(t *testing.T) {
	q := newQueue()
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if !q.push(item{fn: func() { got = append(got, i) }}) {
			t.Fatal("push on open queue failed")
		}
	}
	q.close()
	if q.push(item{fn: func() {}}) {
		t.Error("push after close should fail")
	}
	q.run(nil) // drains what was queued before close, then returns
	if len(got) != 5 {
		t.Fatalf("drained %d of 5 items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestNetworkValidation: a loopback network refuses a missing registry, a nil
// handler, a malformed ID and a second start of a running node.
func TestNetworkValidation(t *testing.T) {
	if _, err := NewLoopback(TCPHostConfig{}, map[node.ID]node.Handler{"worker/0": &pingHandler{}}); err == nil {
		t.Error("expected registry error")
	}
	cfg := TCPHostConfig{Registry: msg.Registry()}
	if _, err := NewLoopback(cfg, map[node.ID]node.Handler{"worker/0": &pingHandler{}, "worker/1": nil}); err == nil {
		t.Error("expected nil handler error")
	}
	if _, err := NewLoopback(cfg, map[node.ID]node.Handler{"bogus": &pingHandler{}}); err == nil {
		t.Error("expected bad-id error")
	}
	lb := newLoopback(t, cfg, map[node.ID]node.Handler{"worker/0": &pingHandler{}})
	if _, err := lb.Start("worker/0", &pingHandler{}); err == nil {
		t.Error("expected duplicate error")
	}
	if _, err := lb.Start("worker/2", nil); err == nil {
		t.Error("expected nil handler error on Start")
	}
}

// greeter sends a Notify to every peer from its Init.
type greeter struct {
	pingHandler
	peers []node.ID
}

func (g *greeter) Init(ctx node.Context) {
	g.pingHandler.Init(ctx)
	for _, p := range g.peers {
		ctx.Send(p, &msg.Notify{Iter: 1})
	}
}

// TestLoopbackInitReachesEveryPeer: every host has the whole address book
// before any Init runs, so a send from Init reaches every peer, whatever the
// start order; the same holds for a node started later.
func TestLoopbackInitReachesEveryPeer(t *testing.T) {
	ids := []node.ID{node.Scheduler, node.WorkerID(0), node.ServerID(0), node.ReplicaID(0, 1)}
	handlers := map[node.ID]node.Handler{}
	greeters := map[node.ID]*greeter{}
	for _, id := range ids {
		g := &greeter{}
		for _, p := range ids {
			if p != id {
				g.peers = append(g.peers, p)
			}
		}
		handlers[id], greeters[id] = g, g
	}
	reg := obs.NewRegistry()
	lb := newLoopback(t, TCPHostConfig{Metrics: reg}, handlers)
	late := &greeter{peers: ids}
	if _, err := lb.Start(node.WorkerID(1), late); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		g := greeters[id]
		if !waitCond(t, func() bool { return g.count() == len(ids) }) {
			t.Errorf("%s received %d greetings, want %d", id, g.count(), len(ids))
		}
	}
	if n := reg.SumCounters("specsync_live_send_failures_total"); n != 0 {
		t.Errorf("%d sends failed", n)
	}
}

// TestNetworkRoundTrip: a message injected at one node is answered over the
// loopback network.
func TestNetworkRoundTrip(t *testing.T) {
	a := &pingHandler{}
	b := &pingHandler{echo: true}
	lb := newLoopback(t, TCPHostConfig{Seed: 1}, map[node.ID]node.Handler{"worker/0": a, "worker/1": b})

	lb.Host("worker/1").Inject("worker/0", &msg.Notify{Iter: 7})
	deadline := time.Now().Add(2 * time.Second)
	for a.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.count() != 1 {
		t.Fatal("echo never arrived")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[0] != 107 {
		t.Errorf("echo iter = %d, want 107", a.seen[0])
	}
}

// TestNetworkInitRunsOnce: Init runs once even when the network closes at
// once, and a second Close is a no-op.
func TestNetworkInitRunsOnce(t *testing.T) {
	h := &pingHandler{}
	lb, err := NewLoopback(TCPHostConfig{Registry: msg.Registry()}, map[node.ID]node.Handler{"worker/0": h})
	if err != nil {
		t.Fatal(err)
	}
	lb.Close()
	lb.Close() // idempotent
	if got := h.inits.Load(); got != 1 {
		t.Errorf("Init ran %d times", got)
	}
}

func TestNetworkTimerAndCancel(t *testing.T) {
	h := &pingHandler{}
	lb := newLoopback(t, TCPHostConfig{}, map[node.ID]node.Handler{"worker/0": h})
	initialized(lb, "worker/0")

	var fired, canceledFired atomic.Bool
	done := make(chan struct{})
	h.ctx.After(10*time.Millisecond, func() {
		fired.Store(true)
		close(done)
	})
	cancel := h.ctx.After(5*time.Millisecond, func() { canceledFired.Store(true) })
	cancel()
	cancel() // double-cancel safe

	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if canceledFired.Load() {
		t.Error("canceled timer fired")
	}
	if !fired.Load() {
		t.Error("timer did not fire")
	}
}

// TestNetworkUnknownDestinationDropped: a send to a node the network does not
// have fails without a panic and is counted.
func TestNetworkUnknownDestinationDropped(t *testing.T) {
	h := &pingHandler{}
	reg := obs.NewRegistry()
	lb := newLoopback(t, TCPHostConfig{Metrics: reg}, map[node.ID]node.Handler{"worker/0": h})
	if lb.Host("worker/99") != nil {
		t.Error("a node that was never started has a host")
	}
	initialized(lb, "worker/0")
	h.ctx.Send("worker/99", &msg.Notify{})
	if n := reg.SumCounters("specsync_live_send_failures_total"); n != 1 {
		t.Errorf("send failures = %d, want 1", n)
	}
}

type byteCounter struct {
	bytes atomic.Int64
}

func (b *byteCounter) RecordTransfer(from, to node.ID, kind wire.Kind, n int, at time.Time) {
	b.bytes.Add(int64(n))
}

func TestNetworkTransferAccounting(t *testing.T) {
	bc := &byteCounter{}
	a, b := &pingHandler{}, &pingHandler{}
	lb := newLoopback(t, TCPHostConfig{Transfer: bc}, map[node.ID]node.Handler{"worker/0": a, "worker/1": b})
	initialized(lb, "worker/0")
	a.ctx.Send("worker/1", &msg.Notify{Iter: 1})
	deadline := time.Now().Add(time.Second)
	for b.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bc.bytes.Load() == 0 {
		t.Error("no bytes recorded")
	}
}
