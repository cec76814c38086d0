package experiments

import (
	"testing"
	"time"

	"specsync/internal/cluster"
)

// TestElasticQuick: growing and shrinking the fleet moves real shard state,
// loses no push across a handoff, and replays to the same trace.
func TestElasticQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, err := Elastic(Options{Workers: 4, Seed: 1, Size: cluster.SizeSmall, MaxVirtual: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations == 0 || r.MigrationBytes <= 0 {
		t.Errorf("%d migrations moved %d bytes, want some of each", r.Migrations, r.MigrationBytes)
	}
	if !r.Reproducible {
		t.Error("trace digest differs between identical runs")
	}
	// A worker counts an iteration only after every shard in its routing view
	// acked the push, so fewer server-side pushes than shards x iterations
	// means a push was lost in a handoff.
	if r.ServerPushes < int64(r.Servers)*r.TotalIters {
		t.Errorf("servers applied %d pushes for %d iterations x >= %d shards; pushes were lost",
			r.ServerPushes, r.TotalIters, r.Servers)
	}
}
