package cluster

import (
	"reflect"
	"testing"
	"time"

	"specsync/internal/faults"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// churnPlan crashes worker 1 long enough to be evicted and readmitted, and
// crashes server shard 0 after checkpoints exist so the restart restores one.
func churnPlan() *faults.Plan {
	return &faults.Plan{Seed: 11, Events: []faults.Event{
		{Kind: faults.KindCrashWorker, At: time.Second, Node: 1, RestartAfter: 6 * time.Second},
		{Kind: faults.KindCrashServer, At: 3500 * time.Millisecond, Node: 0, RestartAfter: 1500 * time.Millisecond},
	}}
}

func churnConfig(t *testing.T) Config {
	t.Helper()
	return tinyConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, func(c *Config) {
		c.Faults = churnPlan()
		c.CheckpointEvery = time.Second
	})
}

func TestChurnRunConvergesAndRecovers(t *testing.T) {
	res, err := Run(churnConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge under churn: final loss %.4f", res.FinalLoss)
	}
	if res.Faults == nil {
		t.Fatal("Result.Faults is nil for a faulted run")
	}
	st := res.Faults
	if st.Crashes != 2 || st.Restarts != 2 {
		t.Errorf("crashes/restarts = %d/%d, want 2/2", st.Crashes, st.Restarts)
	}
	if st.Checkpoints < 3 {
		t.Errorf("checkpoints = %d, want >= 3 before the shard crash", st.Checkpoints)
	}
	if st.Restores != 1 {
		t.Errorf("restores = %d, want 1", st.Restores)
	}
	if st.Evictions < 1 || st.Readmissions < 1 {
		t.Errorf("evictions/readmissions = %d/%d, want >= 1 each", st.Evictions, st.Readmissions)
	}
	if res.Trace.Count(trace.KindCrash) != 2 {
		t.Errorf("trace crash events = %d, want 2", res.Trace.Count(trace.KindCrash))
	}
	// Recover events: one per restart, plus one per scheduler readmission.
	if got := res.Trace.Count(trace.KindRecover); got < 2 {
		t.Errorf("trace recover events = %d, want >= 2", got)
	}
	if res.Trace.Count(trace.KindEvict) < 1 {
		t.Errorf("trace has no evict events")
	}
	if res.TotalIters == 0 {
		t.Error("no iterations completed")
	}
}

func TestChurnRunReproducible(t *testing.T) {
	run := func() *Result {
		res, err := Run(churnConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Loss.Snapshot(), b.Loss.Snapshot()) {
		t.Error("loss series differ across identical faulted runs")
	}
	if a.TotalIters != b.TotalIters || a.Aborts != b.Aborts || a.Epochs != b.Epochs {
		t.Errorf("progress differs: (%d,%d,%d) vs (%d,%d,%d)",
			a.TotalIters, a.Aborts, a.Epochs, b.TotalIters, b.Aborts, b.Epochs)
	}
	if a.Transfer.TotalBytes() != b.Transfer.TotalBytes() {
		t.Errorf("transfer differs: %d vs %d", a.Transfer.TotalBytes(), b.Transfer.TotalBytes())
	}
	if !reflect.DeepEqual(a.Trace.Events(), b.Trace.Events()) {
		t.Error("event traces differ across identical faulted runs")
	}
	if *a.Faults != *b.Faults {
		t.Errorf("fault stats differ: %+v vs %+v", *a.Faults, *b.Faults)
	}
}
