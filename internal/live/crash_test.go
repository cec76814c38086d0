package live

import (
	"sync"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

func waitCond(t *testing.T, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// TestNetworkCrashRestart: a stopped node receives nothing, and a node
// started again at its ID is a fresh incarnation on a fresh port that its
// peers reach at once, while the old one stays frozen.
func TestNetworkCrashRestart(t *testing.T) {
	a := &pingHandler{}
	b := &pingHandler{}
	lb := newLoopback(t, TCPHostConfig{Seed: 1}, map[node.ID]node.Handler{"worker/0": a, "worker/1": b})
	sender := lb.Host("worker/0")

	sender.Send("worker/1", &msg.Notify{Iter: 1})
	if !waitCond(t, func() bool { return b.count() == 1 }) {
		t.Fatal("pre-crash message never arrived")
	}
	oldAddr := lb.Host("worker/1").Addr()

	lb.Stop("worker/1")
	if lb.Host("worker/1") != nil {
		t.Error("a stopped node still has a host")
	}
	lb.Stop("worker/1") // stopping a stopped node is a no-op
	// Messages to a down node are lost; its handler runs nothing once Stop
	// has returned.
	sender.Send("worker/1", &msg.Notify{Iter: 2})
	if c := b.count(); c != 1 {
		t.Errorf("down node received messages: count=%d", c)
	}

	// Restart with a fresh handler; old incarnation stays frozen.
	fresh := &pingHandler{}
	host, err := lb.Start("worker/1", fresh)
	if err != nil {
		t.Fatal(err)
	}
	if host.Addr() == oldAddr {
		t.Errorf("the restarted node re-bound its old address %s", oldAddr)
	}
	if !waitCond(t, func() bool { return fresh.inits.Load() == 1 }) {
		t.Fatal("restarted handler never initialized")
	}
	sender.Send("worker/1", &msg.Notify{Iter: 3})
	if !waitCond(t, func() bool { return fresh.count() == 1 }) {
		t.Fatal("post-restart message never arrived")
	}
	if c := b.count(); c != 1 {
		t.Errorf("old incarnation received post-restart messages: count=%d", c)
	}
}

// timerHandler re-arms a short timer forever; crash must silence it across
// the restart boundary.
type timerHandler struct {
	mu    sync.Mutex
	fires int
}

func (h *timerHandler) Init(ctx node.Context) { h.arm(ctx) }

func (h *timerHandler) arm(ctx node.Context) {
	ctx.After(5*time.Millisecond, func() {
		h.mu.Lock()
		h.fires++
		h.mu.Unlock()
		h.arm(ctx)
	})
}

func (h *timerHandler) Receive(from node.ID, m wire.Message) {}

func (h *timerHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fires
}

func TestNetworkCrashSilencesTimers(t *testing.T) {
	h := &timerHandler{}
	lb := newLoopback(t, TCPHostConfig{Seed: 1}, map[node.ID]node.Handler{"worker/0": h})

	if !waitCond(t, func() bool { return h.count() > 2 }) {
		t.Fatal("timer never fired")
	}
	lb.Stop("worker/0")
	before := h.count()
	time.Sleep(50 * time.Millisecond) // the armed timer falls due; the closed mailbox dropped it
	if after := h.count(); after != before {
		t.Errorf("timers fired while down: %d -> %d", before, after)
	}

	fresh := &timerHandler{}
	if _, err := lb.Start("worker/0", fresh); err != nil {
		t.Fatal(err)
	}
	if !waitCond(t, func() bool { return fresh.count() > 0 }) {
		t.Error("restarted node's timers never fired")
	}
	if after := h.count(); after != before {
		t.Errorf("old incarnation's timers resumed: %d -> %d", before, after)
	}
}
