package live

import (
	"math/rand"
	"testing"
	"time"

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

// TestNetworkTrainsTinyCluster runs the full training stack (servers,
// workers, SpecSync scheduler) as a loopback cluster, each node its own
// TCPHost with real wall-clock timers, and verifies that every worker
// finishes its iterations, the loss halves and the bytes are accounted. This
// is the same node code the simulator runs — the test pins the
// two-runtimes-one-logic property.
func TestNetworkTrainsTinyCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock training test")
	}
	const (
		workers  = 3
		servers  = 2
		iters    = 40
		seed     = 21
		iterTime = 20 * time.Millisecond
	)
	mdl, err := model.NewLinReg(model.LinRegConfig{
		Dim: 12, N: 600, EvalN: 150, Shards: workers, Noise: 0.05,
		BatchSize: 16, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := ps.ShardRanges(mdl.Dim(), servers)
	if err != nil {
		t.Fatal(err)
	}
	initVec := mdl.Init(rand.New(rand.NewSource(seed)))
	lossBefore := mdl.EvalLoss(initVec)

	handlers := map[node.ID]node.Handler{}
	srvs := make([]*ps.Server, servers)
	for i := range srvs {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.05)}, ranges[i].Len())
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], err = ps.New(ps.Config{
			Range: ranges[i], Init: initVec[ranges[i].Lo:ranges[i].Hi], Optimizer: opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[node.ServerID(i)] = srvs[i]
	}
	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	wks := make([]*worker.Worker, workers)
	for i := range wks {
		wks[i], err = worker.New(worker.Config{
			Index: i, Shards: ranges, Model: mdl, Scheme: sc,
			Compute:  worker.ComputeModel{Base: iterTime, Speed: 1, JitterSigma: 0.2},
			MaxIters: iters,
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[node.WorkerID(i)] = wks[i]
	}
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: workers, Scheme: sc, InitialSpan: iterTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	handlers[node.Scheduler] = sched

	transfer := metrics.NewTransfer(msg.IsControl)
	lb := newLoopback(t, TCPHostConfig{Seed: seed, Transfer: transfer}, handlers)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		stopped := 0
		for _, wk := range wks {
			if wk.Stopped() {
				stopped++
			}
		}
		if stopped == workers {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var total int64
	for i, wk := range wks {
		if !wk.Stopped() {
			t.Fatalf("worker %d did not finish (did %d iterations)", i, wk.IterationsDone())
		}
		total += wk.IterationsDone()
	}
	if total != iters*workers {
		t.Errorf("total iterations = %d, want %d", total, iters*workers)
	}

	// Reading shard state after Close is safe: every mailbox goroutine has
	// exited.
	lb.Close()
	final := make([]float64, mdl.Dim())
	for i, r := range ranges {
		if v := srvs[i].Version(); v < iters {
			t.Errorf("server %d applied %d pushes, want at least %d", i, v, iters)
		}
		copy(final[r.Lo:r.Hi], srvs[i].Params())
	}
	lossAfter := mdl.EvalLoss(final)
	if lossAfter >= lossBefore*0.5 {
		t.Errorf("loss did not halve over live training: %.4f -> %.4f", lossBefore, lossAfter)
	}
	if transfer.TotalBytes() == 0 {
		t.Error("no transfer recorded")
	}
	if sched.Epoch() == 0 {
		t.Error("scheduler saw no epochs")
	}
}
