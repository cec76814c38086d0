package live

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/metrics"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestTCPClusterWithCodecs runs the live TCP cluster with a lossy push codec
// (topk + error feedback) and replies at sparse cost, verifying training
// makes progress over the real wire on the v2 message kinds and that the
// codec stats tap sees the compressed traffic, replies included.
func TestTCPClusterWithCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster")
	}
	ccfg := codec.Config{Name: "topk", TopKFrac: 0.25}
	stats := codec.NewStats(msg.CodecLabeler(ccfg.PushName(), ccfg.PullName()))
	ledger := stats.Tap(metrics.NewTransfer(msg.IsControl))

	mdl, err := model.NewLinReg(model.LinRegConfig{
		Dim: 16, N: 400, EvalN: 100, Shards: 2, Noise: 0.1, BatchSize: 16, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := ps.ShardRanges(mdl.Dim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.05)}, mdl.Dim())
	if err != nil {
		t.Fatal(err)
	}
	initW := mdl.Init(rand.New(rand.NewSource(42)))
	srv, err := ps.New(ps.Config{
		Range: ranges[0], Init: initW, Optimizer: opt,
		CodecStats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}

	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers:     2,
		Scheme:      scheme.Config{Base: scheme.ASP},
		InitialSpan: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		wk, err := worker.New(worker.Config{
			Index:      i,
			Shards:     ranges,
			Model:      mdl,
			Scheme:     scheme.Config{Base: scheme.ASP},
			Compute:    worker.ComputeModel{Base: 40 * time.Millisecond, Speed: 1, JitterSigma: 0.2},
			Codec:      ccfg,
			CodecStats: stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = wk
	}

	handlers := map[node.ID]node.Handler{node.ServerID(0): srv, node.Scheduler: sched}
	for i, wk := range workers {
		handlers[node.WorkerID(i)] = wk
	}
	lb := newLoopback(t, TCPHostConfig{Seed: 9, Transfer: ledger}, handlers)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := int64(0)
		for _, wk := range workers {
			done += wk.IterationsDone()
		}
		if done >= 20 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var total int64
	for _, wk := range workers {
		total += wk.IterationsDone()
	}
	if total < 20 {
		t.Fatalf("only %d iterations completed over TCP with codecs", total)
	}
	if srv.Version() < 20 {
		t.Errorf("server applied %d pushes", srv.Version())
	}

	// The v2 kinds must carry the traffic, with real compression recorded.
	pushBytes, pushMsgs := stats.KindBytes(msg.KindPushReqV2, "topk")
	if pushMsgs == 0 || pushBytes == 0 {
		t.Errorf("no v2 push traffic recorded (bytes=%d msgs=%d)", pushBytes, pushMsgs)
	}
	if legacy, _ := stats.KindBytes(msg.KindPushReq, "raw"); legacy != 0 {
		t.Errorf("legacy v1 pushes seen (%d bytes) despite codec config", legacy)
	}
	if r := stats.Ratio(codec.IDTopK); r >= 1 {
		t.Errorf("topk ratio %.3f, want < 1", r)
	}
	// Momentum-free top-k writes only the entries a push carries, so the
	// replies that carry the next pull are deltas of those.
	if dense, enc, blocks := stats.EncodeTotals(codec.IDDelta); blocks == 0 || enc >= dense {
		t.Errorf("%d delta replies, %d bytes for %d dense-equivalent; want deltas", blocks, enc, dense)
	}
	// Error-feedback residual must be live (nonzero somewhere after lossy
	// pushes) on a worker that has pushed; the iteration total above may all
	// be one worker's on a loaded host. Each is read on its own event loop,
	// which is still running.
	nonzero := false
	for i, wk := range workers {
		if wk.IterationsDone() == 0 {
			continue
		}
		hasState := false
		lb.Host(node.WorkerID(i)).Do(func() {
			st := wk.CodecState()
			if hasState = st != nil; !hasState {
				return
			}
			for _, block := range st.Residuals {
				for _, v := range block {
					if v != 0 {
						nonzero = true
					}
				}
			}
		})
		if !hasState {
			t.Fatalf("worker %d has no codec state", i)
		}
	}
	if !nonzero {
		t.Error("error-feedback residuals all zero after lossy pushes")
	}
}
