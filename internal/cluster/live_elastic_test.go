package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestLiveElasticGrowShrink runs a real 2-worker / 2-server loopback TCP
// cluster and grows and shrinks it in wall-clock time, the steps a scale plan
// takes: a third worker and a third server shard join mid-run (with a live
// parameter migration), then both retire (with the migration back). Training
// must keep making progress through every handoff.
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

	handlers := map[node.ID]node.Handler{node.Scheduler: sched}
	for i, s := range srvs {
		handlers[node.ServerID(i)] = s
	}
	for i, wk := range wks {
		handlers[node.WorkerID(i)] = wk
	}
	lb, err := live.NewLoopback(live.TCPHostConfig{Registry: msg.Registry(), Seed: 1}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	schedHost := lb.Host(node.Scheduler)
	waitFor(t, "training on the initial cluster", func() bool {
		return wks[0].IterationsDone() > 0 && wks[1].IterationsDone() > 0
	})

	// Grow: a joining worker announces itself from its Init; a joining
	// server slot waits frozen for the migration the scale command starts.
	joiner, err := makeWorker(workers, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Start(node.WorkerID(workers), joiner); err != nil {
		t.Fatal(err)
	}
	slot, err := ps.NewJoining(ps.Config{NewOptimizer: newOptimizer})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Start(node.ServerID(servers), slot); err != nil {
		t.Fatal(err)
	}
	planner := node.ID("scale-plan")
	schedHost.Inject(planner, &msg.ScaleCmd{Op: msg.ScaleSetServers, Servers: []int32{0, 1, 2}})

	waitFor(t, "the worker join and the scale-up migration", func() bool {
		st := sched.ScaleStats()
		return st.Joins == 1 && st.Migrations >= 1
	})
	waitFor(t, "the joined worker to start iterating", func() bool {
		return joiner.IterationsDone() > 0
	})

	// Shrink: retire the joined worker and hand the third slot's range back.
	schedHost.Inject(planner, &msg.ScaleCmd{Op: msg.ScaleRetireWorker, Node: workers})
	schedHost.Inject(planner, &msg.ScaleCmd{Op: msg.ScaleSetServers, Servers: []int32{0, 1}})
	waitFor(t, "the retirement and the scale-down migration", func() bool {
		st := sched.ScaleStats()
		return st.Leaves == 1 && st.Migrations >= 2
	})
	after := wks[0].IterationsDone() + wks[1].IterationsDone()
	waitFor(t, "training progress after the shrink", func() bool {
		return wks[0].IterationsDone()+wks[1].IterationsDone() > after
	})

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
