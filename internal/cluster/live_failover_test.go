package cluster

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveSchedulerDeathAndRecovery runs a real 2-worker loopback TCP
// cluster, kills the scheduler mid-training, and requires the workers to (1)
// keep iterating while it is gone, and (2) each report its state to a
// restarted incarnation that restored a checkpoint.
func TestLiveSchedulerDeathAndRecovery(t *testing.T) {
	wl, err := NewTiny(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	iterTime := 20 * time.Millisecond

	initVec := wl.Model.Init(rand.New(rand.NewSource(1 ^ 0x1217)))
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, ranges[0].Len())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.New(ps.Config{Range: ranges[0], Init: initVec, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		workers[i], err = worker.New(worker.Config{
			Index:   i,
			Shards:  ranges,
			Model:   wl.Model,
			Scheme:  sc,
			Compute: worker.ComputeModel{Base: iterTime, Speed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	makeSched := func(gen int64) (*core.Scheduler, error) {
		return core.NewScheduler(core.SchedulerConfig{
			Workers:     2,
			Scheme:      sc,
			InitialSpan: iterTime,
			Generation:  gen,
			BeaconEvery: 40 * time.Millisecond,
			Obs:         o.Scheduler(),
		})
	}
	sched, err := makeSched(0)
	if err != nil {
		t.Fatal(err)
	}

	lb, err := live.NewLoopback(live.TCPHostConfig{Registry: msg.Registry(), Seed: 1}, map[node.ID]node.Handler{
		node.ServerID(0): srv, node.WorkerID(0): workers[0], node.WorkerID(1): workers[1], node.Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	waitFor(t, "training under the first scheduler", func() bool {
		return workers[0].IterationsDone() > 0 && workers[1].IterationsDone() > 0
	})

	// Crash: the scheduler's process dies with its host.
	lb.Stop(node.Scheduler)

	// ASP training goes on without a scheduler: more iterations complete
	// than the two that could have been in flight at the crash.
	itersAtCrash := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress while the scheduler is down", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtCrash+2
	})

	// Restart: a generation-1 incarnation restores the dead one's checkpoint
	// (its event loop is stopped, so reading its state stands in for reading
	// durable storage) on a fresh host.
	next, err := makeSched(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Restore(sched.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Start(node.Scheduler, next); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "a state report from each worker", func() bool {
		return o.Registry().SumCounters("specsync_scheduler_state_reports_total") >= 2
	})
	itersAtRecover := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress under the restarted scheduler", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtRecover
	})

	// The incarnation serving at the scheduler's own ID counts itself a
	// restart.
	reg := o.Registry()
	if n := reg.SumCounters("specsync_scheduler_restarts_total"); n != 1 {
		t.Errorf("scheduler restarts = %d, want 1", n)
	}
	if n := reg.SumCounters("specsync_scheduler_state_reports_total"); n != 2 {
		t.Errorf("state reports = %d, want 2 (one per worker)", n)
	}
}
