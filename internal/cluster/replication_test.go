package cluster

import (
	"testing"
	"time"

	"specsync/internal/faults"
	"specsync/internal/scheme"
)

// zeroLossConfig is a single-worker run with a fixed iteration budget: both
// the fault-free and the crashed run end after the identical applied-update
// sequence, so the zero-loss claim reduces to digest equality.
func zeroLossConfig(t *testing.T, mut func(*Config)) Config {
	t.Helper()
	wl, err := NewTiny(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:          wl,
		Scheme:            scheme.Config{Base: scheme.ASP},
		Workers:           1,
		Servers:           2,
		Seed:              11,
		MaxVirtual:        10 * time.Minute,
		MaxItersPerWorker: 40,
		// Convergence must not end the run early — the budget does.
		ConsecutiveBelow: 1 << 30,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

func serverCrashPlan() *faults.Plan {
	return &faults.Plan{Seed: 5, Events: []faults.Event{
		{Kind: faults.KindCrashServer, Node: 0, At: 5 * time.Second, RestartAfter: 2 * time.Second},
	}}
}

// TestReplicatedServerCrashZeroLoss is the paper-level claim behind shard
// replication: with R backups, a crashed shard promotes a backup that holds
// every acknowledged push, so the final model is byte-identical to the
// fault-free run's. The checkpoint path (R = 0) on the same plan provably
// loses pushes.
func TestReplicatedServerCrashZeroLoss(t *testing.T) {
	baseline, err := Run(zeroLossConfig(t, func(c *Config) {
		c.Replication = Replication{Replicas: 2}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.ParamsDigest == "" {
		t.Fatal("baseline produced no params digest")
	}

	crashed, err := Run(zeroLossConfig(t, func(c *Config) {
		c.Replication = Replication{Replicas: 2}
		c.Faults = serverCrashPlan()
	}))
	if err != nil {
		t.Fatal(err)
	}
	st := crashed.Faults
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("crashes/restarts = %d/%d, want 1/1", st.Crashes, st.Restarts)
	}
	if st.Promotions != 1 {
		t.Errorf("promotions = %d, want 1 (backup should replace the crashed shard)", st.Promotions)
	}
	if st.LostPushes != 0 {
		t.Errorf("lost pushes = %d, want 0 under replication", st.LostPushes)
	}
	if crashed.ParamsDigest != baseline.ParamsDigest {
		t.Errorf("zero-loss violated: crashed digest %s, fault-free %s",
			crashed.ParamsDigest, baseline.ParamsDigest)
	}
	if crashed.Replication == nil {
		t.Fatal("replication stats missing")
	}
	if crashed.Replication.Forwarded == 0 || crashed.Replication.Applied == 0 {
		t.Errorf("replication stream idle: forwarded %d, applied %d",
			crashed.Replication.Forwarded, crashed.Replication.Applied)
	}
	if len(crashed.Flight.Filter("replica-promote")) != 1 {
		t.Errorf("flight recorder has %d replica-promote events, want 1",
			len(crashed.Flight.Filter("replica-promote")))
	}

	// Same crash, no replication: the shard rolls back to a checkpoint (or
	// its initial values) and the pushes applied since are gone for good.
	lossy, err := Run(zeroLossConfig(t, func(c *Config) {
		c.Faults = serverCrashPlan()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if lost := lossy.Faults.LostPushes; lost == 0 {
		t.Error("checkpoint-restore run reported zero lost pushes; expected losses")
	}
	if lossy.ParamsDigest == baseline.ParamsDigest {
		t.Error("checkpoint-restore run matched the fault-free digest; the crash should have cost pushes")
	}
}

// TestReplicatedRunDeterminism: the replicated planes (snapshot shipping,
// election timers, forward streams) must not break the simulator's
// reproducibility — two identical runs, including a crash and failover,
// produce identical digests.
func TestReplicatedRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(zeroLossConfig(t, func(c *Config) {
			c.Replication = Replication{Replicas: 1, StandbySchedulers: 2}
			c.Faults = serverCrashPlan()
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ParamsDigest != b.ParamsDigest {
		t.Errorf("digests differ across identical replicated runs: %s vs %s", a.ParamsDigest, b.ParamsDigest)
	}
	if a.TotalIters != b.TotalIters {
		t.Errorf("iteration counts differ: %d vs %d", a.TotalIters, b.TotalIters)
	}
}

// TestSchedulerFailoverElectsStandby kills the scheduler with standbys
// configured: a standby must win an election and take over, so BSP barriers
// and SSP clocks keep being served and the run converges.
func TestSchedulerFailoverElectsStandby(t *testing.T) {
	schemes := map[string]scheme.Config{
		"adaptive": {Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		"bsp":      {Base: scheme.BSP},
		"ssp":      {Base: scheme.SSP, Staleness: 3},
	}
	for name, sc := range schemes {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, sc, func(c *Config) {
				c.Replication = Replication{StandbySchedulers: 2}
				// The scheduler stays down; the standbys own recovery.
				c.Faults = &faults.Plan{Seed: 7, Events: []faults.Event{
					{Kind: faults.KindCrashScheduler, At: 2500 * time.Millisecond},
				}}
			})
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge after scheduler failover: final loss %.4f", res.FinalLoss)
			}
			rs := res.Replication
			if rs == nil {
				t.Fatal("replication stats missing")
			}
			if rs.Elections < 1 {
				t.Errorf("elections = %d, want >= 1", rs.Elections)
			}
			if rs.FinalTerm < 1 {
				t.Errorf("final term = %d, want >= 1", rs.FinalTerm)
			}
			if rs.LeaderNode != "scheduler/1" && rs.LeaderNode != "scheduler/2" {
				t.Errorf("leader node %q, want an elected standby", rs.LeaderNode)
			}
			if rs.SnapshotsShipped == 0 {
				t.Error("no scheduler snapshots were ever shipped")
			}
			st := res.Faults
			if st.SchedulerCrashes != 1 {
				t.Errorf("scheduler crashes = %d, want 1", st.SchedulerCrashes)
			}
			if st.Elections != rs.Elections {
				t.Errorf("faults elections %d != replication stats %d", st.Elections, rs.Elections)
			}
			if len(res.Flight.Filter("leader-elected")) == 0 {
				t.Error("flight recorder has no leader-elected event")
			}
		})
	}
}

// TestWorkerRestartedAfterElectionFindsLeader: a worker that is down while a
// standby wins the election misses the LeaderAnnounce, and its restarted
// incarnation addresses the dead scheduler. The new leader's SchedulerBeacon
// is how it finds the leader: it reports its state and is not evicted.
func TestWorkerRestartedAfterElectionFindsLeader(t *testing.T) {
	run := func() *Result {
		res, err := Run(tinyConfig(t, scheme.Config{Base: scheme.SSP, Staleness: 3}, func(c *Config) {
			c.Replication = Replication{StandbySchedulers: 2}
			c.Faults = &faults.Plan{Seed: 7, Events: []faults.Event{
				{Kind: faults.KindCrashWorker, Node: 1, At: 2 * time.Second, RestartAfter: 4 * time.Second},
				{Kind: faults.KindCrashScheduler, At: 2500 * time.Millisecond},
			}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Replication == nil || a.Replication.Elections < 1 {
		t.Fatalf("no standby election: %+v", a.Replication)
	}
	st := a.Faults
	if st.Restarts != 1 {
		t.Errorf("worker restarts = %d, want 1", st.Restarts)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (the restarted worker must find the new leader)", st.Evictions)
	}
	if st.StateReports != 4 {
		t.Errorf("state reports = %d, want one from each of the 4 workers", st.StateReports)
	}
	if !a.Converged {
		t.Errorf("did not converge: final loss %.4f", a.FinalLoss)
	}
	if a.ParamsDigest != b.ParamsDigest || traceDigest(t, a) != traceDigest(t, b) {
		t.Errorf("double run diverged: params %s vs %s", a.ParamsDigest, b.ParamsDigest)
	}
}

// TestReplicationValidation pins the configuration exclusions.
func TestReplicationValidation(t *testing.T) {
	cfg := zeroLossConfig(t, func(c *Config) {
		c.Replication = Replication{Replicas: 1}
		c.Faults = &faults.Plan{Events: []faults.Event{
			{Kind: faults.KindDrop, At: time.Second, Duration: time.Second, Rate: 0.5},
		}}
	})
	if _, err := Run(cfg); err == nil {
		t.Error("replication with a message-fault plan should be rejected")
	}
	cfg = zeroLossConfig(t, func(c *Config) {
		c.Replication = Replication{Replicas: -1}
	})
	if _, err := Run(cfg); err == nil {
		t.Error("negative replica count should be rejected")
	}
}
