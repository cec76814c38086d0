package cluster

import (
	"reflect"
	"testing"
	"time"

	"specsync/internal/faults"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// schedChurnPlan crashes the scheduler mid-run; with CheckpointEvery = 1s the
// crash at 2.5s happens after two scheduler checkpoints, so the restart
// restores one and the StateReport handshake fills in the rest.
func schedChurnPlan(restartAfter time.Duration) *faults.Plan {
	return &faults.Plan{Seed: 7, Events: []faults.Event{
		{Kind: faults.KindCrashScheduler, At: 2500 * time.Millisecond, RestartAfter: restartAfter},
	}}
}

func schedChurnConfig(t *testing.T, sc scheme.Config, restartAfter time.Duration) Config {
	t.Helper()
	return tinyConfig(t, sc, func(c *Config) {
		c.Faults = schedChurnPlan(restartAfter)
		c.CheckpointEvery = time.Second
		c.BeaconEvery = 500 * time.Millisecond
	})
}

// TestSchedulerChurnConvergesAllSchemes kills the scheduler mid-epoch under
// each synchronization discipline and requires the run to still converge: the
// restarted incarnation must rebuild its state (releasing any BSP barrier or
// SSP clock the workers are parked on) rather than deadlocking the cluster.
func TestSchedulerChurnConvergesAllSchemes(t *testing.T) {
	schemes := map[string]scheme.Config{
		"adaptive": {Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		"bsp":      {Base: scheme.BSP},
		"ssp":      {Base: scheme.SSP, Staleness: 3},
	}
	for name, sc := range schemes {
		t.Run(name, func(t *testing.T) {
			res, err := Run(schedChurnConfig(t, sc, 4*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge after scheduler crash: final loss %.4f", res.FinalLoss)
			}
			st := res.Faults
			if st.SchedulerCrashes != 1 || st.SchedulerRestarts != 1 {
				t.Errorf("scheduler crashes/restarts = %d/%d, want 1/1", st.SchedulerCrashes, st.SchedulerRestarts)
			}
			if st.SchedulerRestores != 1 {
				t.Errorf("scheduler restores = %d, want 1 (checkpoints existed)", st.SchedulerRestores)
			}
			if st.StateReports < 4 {
				t.Errorf("state reports = %d, want >= 4 (every worker answers the Hello)", st.StateReports)
			}
			// The crash and the incarnation's recovery both carry the
			// scheduler's trace sentinel.
			foundCrash, foundRecover := false, false
			for _, ev := range res.Trace.Events() {
				if ev.Worker != trace.SchedulerNode {
					continue
				}
				switch ev.Kind {
				case trace.KindCrash:
					foundCrash = true
				case trace.KindRecover:
					foundRecover = true
					if ev.Value != 1 {
						t.Errorf("scheduler recover generation = %d, want 1", ev.Value)
					}
				}
			}
			if !foundCrash || !foundRecover {
				t.Errorf("trace crash/recover at scheduler sentinel = %v/%v, want both", foundCrash, foundRecover)
			}
			if res.TotalIters == 0 {
				t.Error("no iterations completed")
			}
		})
	}
}

// TestSchedulerChurnReproducible requires byte-identical traces across two
// same-seed runs of the scheduler-crash plan: beacons, the handshake and the
// checkpoint restore must all live in virtual time.
func TestSchedulerChurnReproducible(t *testing.T) {
	run := func() *Result {
		res, err := Run(schedChurnConfig(t,
			scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, 4*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Loss.Snapshot(), b.Loss.Snapshot()) {
		t.Error("loss series differ across identical scheduler-crash runs")
	}
	if a.TotalIters != b.TotalIters || a.Aborts != b.Aborts || a.Epochs != b.Epochs || a.ReSyncs != b.ReSyncs {
		t.Errorf("progress differs: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.TotalIters, a.Aborts, a.Epochs, a.ReSyncs, b.TotalIters, b.Aborts, b.Epochs, b.ReSyncs)
	}
	if !reflect.DeepEqual(a.Trace.Events(), b.Trace.Events()) {
		t.Error("event traces differ across identical scheduler-crash runs")
	}
	if *a.Faults != *b.Faults {
		t.Errorf("fault stats differ: %+v vs %+v", *a.Faults, *b.Faults)
	}
}

// TestSchedulerLostLeavesPlainASP kills the scheduler for good under ASP +
// adaptive SpecSync. Without a scheduler nothing re-syncs a worker, so the
// workers run plain ASP, the paper's own baseline: no re-sync or abort lands
// later than one network delay after the crash, and the run converges.
func TestSchedulerLostLeavesPlainASP(t *testing.T) {
	cfg := schedChurnConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge with the scheduler permanently down: final loss %.4f", res.FinalLoss)
	}
	st := res.Faults
	if st.SchedulerCrashes != 1 || st.SchedulerRestarts != 0 {
		t.Errorf("scheduler crashes/restarts = %d/%d, want 1/0", st.SchedulerCrashes, st.SchedulerRestarts)
	}
	var crashAt time.Time
	for _, ev := range res.Trace.Events() {
		if ev.Kind == trace.KindCrash && ev.Worker == trace.SchedulerNode {
			crashAt = ev.At
		}
	}
	if crashAt.IsZero() {
		t.Fatal("no scheduler crash event in trace")
	}
	net := cfg.WithDefaults().Net
	quiet := crashAt.Add(net.Latency + net.Jitter)
	for _, ev := range res.Trace.Events() {
		if (ev.Kind == trace.KindReSync || ev.Kind == trace.KindAbort) && ev.At.After(quiet) {
			t.Errorf("%s on worker %d at %v, after the scheduler died at %v", ev.Kind, ev.Worker, ev.At, crashAt)
		}
	}
}
