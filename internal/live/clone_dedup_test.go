package live

import (
	"sync"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// ackSink counts the push replies delivered to one sender, and those of
// them that carried the shard's block.
type ackSink struct {
	mu           sync.Mutex
	acks, blocks int
}

func (a *ackSink) Init(node.Context) {}
func (a *ackSink) Receive(_ node.ID, m wire.Message) {
	if resp, ok := m.(*msg.PullResp); ok {
		a.mu.Lock()
		a.acks++
		if len(resp.Values) > 0 {
			a.blocks++
		}
		a.mu.Unlock()
	}
}
func (a *ackSink) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acks
}

// TestLiveCloneDedupNeverDoubleApplies races an original worker and its clone
// pushing the same logical (worker, iter) gradients at a live parameter
// server. Whatever the interleaving, every iteration must be applied exactly
// once (the duplicate acknowledged without applying), so the final parameters
// equal a serial single-worker run. The original asks for the block with
// every push and the clone never does; each gets what it asked for, whether
// its push won or lost. Run under -race this also pins the thread-safety of
// the clone-dedup path on the live runtime.
func TestLiveCloneDedupNeverDoubleApplies(t *testing.T) {
	const (
		iters = 50
		dim   = 4
		lr    = 0.5
	)
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(lr)}, dim)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.New(ps.Config{
		Range:       ps.Range{Lo: 0, Hi: dim},
		Init:        tensor.Vec{0, 0, 0, 0},
		Optimizer:   opt,
		DedupPushes: true,
		CloneBase:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig, clone, stray := &ackSink{}, &ackSink{}, &ackSink{}
	lb := newLoopback(t, TCPHostConfig{Seed: 5}, map[node.ID]node.Handler{
		node.ServerID(0): srv, node.WorkerID(1): orig, node.WorkerID(4): clone, node.WorkerID(5): stray,
	})

	// Bind slot 4 onto worker 1 before any clone traffic (FIFO per inbox).
	lb.Host(node.ServerID(0)).Inject(node.Scheduler, &msg.CloneNotice{Slot: 4, Target: 1})

	grad := func(k int) []float64 {
		return []float64{1, float64(k % 7), -1, float64(k % 3)}
	}
	// Each push leaves its sender's host over its own connection, so the
	// original's and the clone's race at the server's mailbox.
	push := func(from node.ID, k int) {
		lb.Host(from).Send(node.ServerID(0), &msg.PushReq{
			Seq: uint64(k + 1), Iter: int64(k), PullVersion: 0, Dense: grad(k), Pull: from == node.WorkerID(1),
		})
	}
	var wg sync.WaitGroup
	for _, from := range []node.ID{node.WorkerID(1), node.WorkerID(4)} {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				push(from, k)
			}
		}()
	}
	wg.Wait()
	// A push from an unaliased spare slot must be dropped, not applied.
	push(node.WorkerID(5), 0)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, dropped := srv.CloneStats()
		if orig.count() == iters && clone.count() == iters && dropped == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if orig.count() != iters || clone.count() != iters {
		t.Fatalf("acks: original %d, clone %d, want %d each", orig.count(), clone.count(), iters)
	}
	if orig.blocks != iters || clone.blocks != 0 {
		t.Errorf("replies with the block: original %d (want %d), clone %d (want 0)", orig.blocks, iters, clone.blocks)
	}

	// Exactly one apply per iteration, whoever won it.
	lb.Close()
	if v := srv.Version(); v != iters {
		t.Errorf("server version %d, want %d applies", v, iters)
	}
	deduped, dropped := srv.CloneStats()
	if deduped != iters {
		t.Errorf("deduped %d pushes, want %d (one loser per iteration)", deduped, iters)
	}
	if dropped != 1 {
		t.Errorf("dropped %d unaliased pushes, want 1", dropped)
	}
	if stray.count() != 0 {
		t.Errorf("unaliased spare got %d acks, want 0 (retry resolves it)", stray.count())
	}

	// The applied sequence equals a serial single-worker run: w -= lr * g_k.
	want := make(tensor.Vec, dim)
	for k := 0; k < iters; k++ {
		for d, g := range grad(k) {
			want[d] -= lr * g
		}
	}
	got := srv.Params()
	for d := range want {
		if diff := got[d] - want[d]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("params[%d] = %v, want %v (double-applied or skipped an iteration)", d, got[d], want[d])
		}
	}
}
