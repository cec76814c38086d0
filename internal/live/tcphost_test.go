package live

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestTCPClusterEndToEnd runs a 2-worker training cluster over TCP loopback:
// scheduler, one server shard, two workers, each in its own TCPHost. It
// verifies that iterations complete and pushes reach the server over the
// actual wire.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster")
	}
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
	srv, err := ps.New(ps.Config{Range: ranges[0], Init: initW, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[node.ID]node.Handler{node.ServerID(0): srv}

	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: 2, Scheme: sc,
		// 40ms nominal iterations keep the test fast.
		InitialSpan: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	handlers[node.Scheduler] = sched

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		workers[i], err = worker.New(worker.Config{
			Index: i, Shards: ranges, Model: mdl, Scheme: sc,
			Compute: worker.ComputeModel{Base: 40 * time.Millisecond, Speed: 1, JitterSigma: 0.2},
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[node.WorkerID(i)] = workers[i]
	}
	lb := newLoopback(t, TCPHostConfig{Seed: 9}, handlers)

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
	// Reading node state after Close is safe: every mailbox goroutine has
	// exited.
	lb.Close()
	var total int64
	for _, wk := range workers {
		total += wk.IterationsDone()
	}
	if total < 20 {
		t.Fatalf("only %d iterations completed over TCP", total)
	}
	if srv.Version() < 20 {
		t.Errorf("server applied %d pushes", srv.Version())
	}
}

// TestTCPHostClosedMailboxKeepsGaugeAtZero: a message the closed mailbox
// refuses must not stay counted in specsync_live_mailbox_depth, which every
// host on one registry shares.
func TestTCPHostClosedMailboxKeepsGaugeAtZero(t *testing.T) {
	reg := obs.NewRegistry()
	host, err := NewTCPHost(TCPHostConfig{
		ID: node.ServerID(0), Handler: &pingHandler{}, ListenAddr: "127.0.0.1:0",
		Registry: msg.Registry(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	host.Close()
	host.Inject(node.WorkerID(0), &msg.Notify{Iter: 1})
	if d := reg.Gauge("specsync_live_mailbox_depth", "").Value(); d != 0 {
		t.Errorf("mailbox depth after an Inject into a closed host = %v, want 0", d)
	}
}
