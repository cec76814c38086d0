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
	"specsync/internal/replica"
	"specsync/internal/scheme"
	"specsync/internal/worker"
)

// TestLiveReplicatedFailover runs the replicated planes on a loopback TCP
// cluster: one shard with one warm backup and a scheduler with one standby.
// The test kills the shard primary and then the scheduler for good; the
// backup must be promoted with zero lost pushes and the standby must win an
// election and keep serving the workers.
func TestLiveReplicatedFailover(t *testing.T) {
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
	makeShard := func(backup bool) *ps.Server {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, ranges[0].Len())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ps.New(ps.Config{Range: ranges[0], Init: initVec, Optimizer: opt, Replica: backup, Obs: o.Server(0)})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	primary := makeShard(false)
	backup := makeShard(true)
	primary.SetBackups([]node.ID{node.ReplicaID(0, 1)})

	workers := make([]*worker.Worker, 2)
	for i := range workers {
		workers[i], err = worker.New(worker.Config{
			Index:      i,
			Shards:     ranges,
			Model:      wl.Model,
			Scheme:     sc,
			Compute:    worker.ComputeModel{Base: iterTime, Speed: 1},
			RetryAfter: 100 * time.Millisecond,
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
	leader, err := replica.NewLeader(replica.LeaderConfig{
		Sched:          sched,
		Standbys:       1,
		ReplicateEvery: 40 * time.Millisecond,
		Obs:            o,
	})
	if err != nil {
		t.Fatal(err)
	}
	standby, err := replica.NewStandby(replica.StandbyConfig{
		Index:           1,
		Standbys:        1,
		Workers:         2,
		ElectionTimeout: 300 * time.Millisecond,
		ReplicateEvery:  40 * time.Millisecond,
		MakeScheduler:   makeSched,
		Obs:             o,
	})
	if err != nil {
		t.Fatal(err)
	}

	lb, err := live.NewLoopback(live.TCPHostConfig{Registry: msg.Registry(), Seed: 1}, map[node.ID]node.Handler{
		node.ServerID(0): primary, node.ReplicaID(0, 1): backup,
		node.WorkerID(0): workers[0], node.WorkerID(1): workers[1],
		node.Scheduler: leader, node.StandbyID(1): standby,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	waitFor(t, "the primary to apply pushes", func() bool { return primary.Version() > 0 })

	// Kill the shard primary, pinning the version it had acknowledged.
	lb.Stop(node.ServerID(0))
	acked := primary.Version()

	// Promote the backup once it has drained the dead primary's replication
	// stream (what it still lacks after the wait is lost): detach it from its
	// replica ID, whose closed host runs nothing more on it, and serve it at
	// the shard's well-known ID on a fresh host.
	for deadline := time.Now().Add(10 * time.Second); backup.Version() < acked && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	lb.Stop(node.ReplicaID(0, 1))
	if lost := acked - backup.Version(); lost > 0 {
		t.Errorf("lost pushes = %d, want 0 under replication", lost)
	}
	backup.Promote(nil)
	if _, err := lb.Start(node.ServerID(0), backup); err != nil {
		t.Fatal(err)
	}
	// The promoted backup counts its own promotion: no injector runs here.
	if st := o.Faults().Totals(); st.Promotions != 1 || st.Restarts != 1 || st.LostPushes != 0 {
		t.Errorf("after the promotion the ledger reads %d promotions, %d restarts, %d lost pushes; want 1, 1, 0",
			st.Promotions, st.Restarts, st.LostPushes)
	}

	itersAtPromote := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress on the promoted shard", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtPromote
	})

	// Kill the scheduler for good once it has shipped a snapshot (its first
	// ship is one ReplicateEvery after Init, and training may reach this
	// point sooner): the standby owns recovery.
	waitFor(t, "the leader to ship a snapshot", func() bool {
		return o.Registry().SumCounters("specsync_scheduler_snapshots_shipped_total") > 0
	})
	lb.Stop(node.Scheduler)
	waitFor(t, "the standby to win the election", func() bool {
		return standby.Role() == replica.RoleLeader
	})
	itersAtElect := workers[0].IterationsDone() + workers[1].IterationsDone()
	waitFor(t, "training progress under the elected scheduler", func() bool {
		return workers[0].IterationsDone()+workers[1].IterationsDone() > itersAtElect
	})

	// The elected incarnation counts as an election, not a restart.
	st := o.Faults().Totals()
	if st.Elections < 1 {
		t.Errorf("elections = %d, want >= 1", st.Elections)
	}
	if st.SchedulerRestarts != 0 {
		t.Errorf("scheduler restarts = %d, want 0 (the standby owns recovery)", st.SchedulerRestarts)
	}
	if st.SnapshotsShipped == 0 {
		t.Error("no scheduler snapshots were ever shipped")
	}
	if got := backup.Replica(); got {
		t.Error("promoted backup still reports replica mode")
	}
}
