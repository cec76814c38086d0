package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/elastic"
	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestLiveElasticGrowShrink runs a real 2-worker / 2-server cluster on the
// live in-process runtime and executes a grow/shrink scale plan against it
// in wall-clock time: a third worker and a third server shard join mid-run
// (with a live parameter migration), then both retire (with the migration
// back). Training must keep making progress through every handoff.
func TestLiveElasticGrowShrink(t *testing.T) {
	const (
		workers = 2
		servers = 2
		iterT   = 20 * time.Millisecond
	)
	wl, err := NewTiny(workers+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), servers)
	if err != nil {
		t.Fatal(err)
	}
	newOptimizer := func(n int) (*optimizer.SGD, error) {
		return optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, n)
	}
	routing := &core.RoutingTable{Shards: make([]core.ShardRoute, servers)}
	for i, r := range ranges {
		routing.Shards[i] = core.ShardRoute{Lo: r.Lo, Hi: r.Hi, Server: i}
	}

	initVec := wl.Model.Init(rand.New(rand.NewSource(1 ^ 0x1217)))
	srvs := make([]*ps.Server, servers)
	for i, r := range ranges {
		opt, err := newOptimizer(r.Len())
		if err != nil {
			t.Fatal(err)
		}
		if srvs[i], err = ps.New(ps.Config{
			Range: r, Init: initVec[r.Lo:r.Hi], Optimizer: opt, NewOptimizer: newOptimizer,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// curRouting tracks the committed table so the joining worker starts
	// from the current layout, exactly as cluster.Run does.
	var mu sync.Mutex
	curRouting := routing.Clone()
	makeWorker := func(i int, joining bool) (*worker.Worker, error) {
		mu.Lock()
		rt := curRouting.Clone()
		mu.Unlock()
		return worker.New(worker.Config{
			Index:      i,
			Model:      wl.Model,
			Scheme:     sc,
			Compute:    worker.ComputeModel{Base: iterT, Speed: 1},
			NumWorkers: workers,
			RetryAfter: 50 * time.Millisecond,
			Routing:    rt,
			JoinOnInit: joining,
		})
	}
	wks := make([]*worker.Worker, workers)
	for i := range wks {
		if wks[i], err = makeWorker(i, false); err != nil {
			t.Fatal(err)
		}
	}

	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers:       workers + 1,
		ActiveWorkers: workers,
		Routing:       routing,
		OnRouting: func(tb *core.RoutingTable) {
			mu.Lock()
			curRouting = tb
			mu.Unlock()
		},
		Scheme:      sc,
		InitialSpan: iterT,
	})
	if err != nil {
		t.Fatal(err)
	}

	net, err := live.NewNetwork(live.NetworkConfig{Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range srvs {
		if err := net.AddNode(node.ServerID(i), s); err != nil {
			t.Fatal(err)
		}
	}
	for i, wk := range wks {
		if err := net.AddNode(node.WorkerID(i), wk); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.AddNode(node.Scheduler, sched); err != nil {
		t.Fatal(err)
	}

	plan := elastic.GrowShrink(workers, 1, servers, 1,
		150*time.Millisecond, 450*time.Millisecond)
	var joiner *worker.Worker
	inj, err := elastic.NewLive(elastic.LiveOptions{
		Plan:      plan,
		Servers:   servers,
		NewWorker: func(i int) (node.Handler, error) { return makeWorker(i, true) },
		NewServer: func(slot int) (node.Handler, error) {
			return ps.NewJoining(ps.Config{NewOptimizer: newOptimizer})
		},
		OnWorkerAdd: func(i int, h node.Handler) {
			mu.Lock()
			joiner = h.(*worker.Worker)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	defer net.Close()
	inj.Start(net)
	defer inj.Stop()

	waitFor(t, "the worker join and the scale-up migration", func() bool {
		st := sched.ScaleStats()
		return st.Joins == 1 && st.Migrations >= 1
	})
	mu.Lock()
	j := joiner
	mu.Unlock()
	waitFor(t, "the joined worker to start iterating", func() bool {
		return j.IterationsDone() > 0
	})
	waitFor(t, "the retirement and the scale-down migration", func() bool {
		st := sched.ScaleStats()
		return st.Leaves == 1 && st.Migrations >= 2
	})
	after := wks[0].IterationsDone() + wks[1].IterationsDone()
	waitFor(t, "training progress after the shrink", func() bool {
		return wks[0].IterationsDone()+wks[1].IterationsDone() > after
	})

	if errs := inj.Errs(); len(errs) != 0 {
		t.Fatalf("injector errors: %v", errs)
	}
	st := sched.ScaleStats()
	if st.MigrationBytes <= 0 {
		t.Errorf("migration bytes = %d, want > 0", st.MigrationBytes)
	}
	if len(st.Durations) != int(st.Migrations) {
		t.Errorf("%d migration durations for %d migrations", len(st.Durations), st.Migrations)
	}
	mu.Lock()
	final := curRouting
	mu.Unlock()
	if final.Epoch < 2 {
		t.Errorf("final routing epoch = %d, want >= 2", final.Epoch)
	}
	for _, sh := range final.Shards {
		if sh.Server >= servers {
			t.Errorf("final routing still targets retired server slot %d", sh.Server)
		}
	}
}
