package live

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
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

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{}); err == nil {
		t.Error("expected registry error")
	}
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/0", &pingHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/0", &pingHandler{}); err == nil {
		t.Error("expected duplicate error")
	}
	if err := n.AddNode("worker/1", nil); err == nil {
		t.Error("expected nil handler error")
	}
	n.Start()
	defer n.Close()
	if err := n.AddNode("worker/2", &pingHandler{}); err == nil {
		t.Error("expected post-start error")
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := &pingHandler{}
	b := &pingHandler{echo: true}
	if err := n.AddNode("worker/0", a); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/1", b); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	if err := n.Inject("worker/0", "worker/1", &msg.Notify{Iter: 7}); err != nil {
		t.Fatal(err)
	}
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

func TestNetworkInitRunsOnce(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	h := &pingHandler{}
	if err := n.AddNode("worker/0", h); err != nil {
		t.Fatal(err)
	}
	n.Start()
	n.Start() // idempotent
	time.Sleep(10 * time.Millisecond)
	n.Close()
	n.Close() // idempotent
	if got := h.inits.Load(); got != 1 {
		t.Errorf("Init ran %d times", got)
	}
}

func TestNetworkTimerAndCancel(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	h := &pingHandler{}
	if err := n.AddNode("worker/0", h); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	// Wait for Init to run on the mailbox.
	deadline := time.Now().Add(time.Second)
	for h.inits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

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

func TestNetworkUnknownDestinationDropped(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	h := &pingHandler{}
	if err := n.AddNode("worker/0", h); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()
	if err := n.Inject("x", "worker/99", &msg.Notify{}); err == nil {
		t.Error("Inject to unknown node should error")
	}
	// Node-to-node send to unknown id must not panic.
	deadline := time.Now().Add(time.Second)
	for h.inits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.ctx.Send("worker/99", &msg.Notify{})
}

type byteCounter struct {
	bytes atomic.Int64
}

func (b *byteCounter) RecordTransfer(from, to node.ID, kind wire.Kind, n int, at time.Time) {
	b.bytes.Add(int64(n))
}

func TestNetworkTransferAccounting(t *testing.T) {
	bc := &byteCounter{}
	n, err := NewNetwork(NetworkConfig{Registry: msg.Registry(), Transfer: bc})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &pingHandler{}, &pingHandler{}
	if err := n.AddNode("worker/0", a); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("worker/1", b); err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()
	deadline := time.Now().Add(time.Second)
	for a.inits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.ctx.Send("worker/1", &msg.Notify{Iter: 1})
	for b.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bc.bytes.Load() == 0 {
		t.Error("no bytes recorded")
	}
}
