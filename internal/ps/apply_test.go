package ps

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// discardCtx is a node.Context that drops every send and never fires a timer,
// so what a push costs is the shard's own work.
type discardCtx struct{}

func (discardCtx) Self() node.ID                               { return node.ServerID(0) }
func (discardCtx) Now() time.Time                              { return time.Unix(0, 0) }
func (discardCtx) Send(node.ID, wire.Message)                  {}
func (discardCtx) After(time.Duration, func()) node.CancelFunc { return func() {} }
func (discardCtx) Rand() *rand.Rand                            { return nil }
func (discardCtx) Logf(string, ...any)                         {}

// densePusher builds a plain SGD shard over dim values and returns a push
// that hands it the next dense push from one worker: Receive dispatch,
// optimizer apply, version and staleness bookkeeping, and the reply, which
// carries the block when pull is set. Like a runtime's decode pool, it reuses
// one message for every push.
func densePusher(tb testing.TB, dim int, pull bool) (push func()) {
	tb.Helper()
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.05)}, dim)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Range: Range{Lo: 0, Hi: dim}, Init: tensor.NewVec(dim), Optimizer: opt})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Init(discardCtx{})
	rng := rand.New(rand.NewSource(2))
	req := &msg.PushReq{Dense: make([]float64, dim), Pull: pull}
	for i := range req.Dense {
		req.Dense[i] = rng.NormFloat64()
	}
	from := node.WorkerID(0)
	return func() {
		req.Seq++
		req.Iter = int64(req.Seq)
		req.PullVersion = req.Iter - 1
		srv.Receive(from, req)
		if srv.Version() != req.Iter {
			tb.Fatalf("push %d not applied (version %d)", req.Iter, srv.Version())
		}
	}
}

// TestDensePushAllocatesNothing: applying a dense push allocates nothing in
// the shard, whether or not it asks for the block back; even the PullResp
// handed to Send is the shard's held reply.
func TestDensePushAllocatesNothing(t *testing.T) {
	for _, pull := range []bool{false, true} {
		push := densePusher(t, 4096, pull)
		push()
		if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
			t.Errorf("pull=%v: a dense push allocates %v objects in the shard, want 0", pull, allocs)
		}
	}
}

// BenchmarkServerApply is the server side of one dense 4096-value push.
func BenchmarkServerApply(b *testing.B) {
	push := densePusher(b, 4096, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
}
