package experiments

import (
	"testing"
	"time"

	"specsync/internal/cluster"
)

// TestMultiJobQuick: three jobs with different schemes share one fleet, each
// converges within a bounded slowdown of its standalone run, the per-job byte
// accounts sum to the fleet's, and the fleet replays to the same trace.
func TestMultiJobQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, err := MultiJob(Options{Workers: 8, Seed: 1, Size: cluster.SizeSmall, MaxVirtual: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d jobs, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Converged {
			t.Errorf("job %s (%s) did not converge", row.Job, row.Scheme)
		}
		if row.Epsilon > 0.25 {
			t.Errorf("job %s: isolation epsilon %.3f, want <= 0.25", row.Job, row.Epsilon)
		}
	}
	if r.SumJobBytes != r.FleetBytes {
		t.Errorf("per-job byte accounts sum to %d, fleet recorded %d", r.SumJobBytes, r.FleetBytes)
	}
	if !r.Deterministic {
		t.Error("trace digest differs between identical runs")
	}
}
