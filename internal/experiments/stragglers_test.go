package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"specsync/internal/cluster"
)

func TestStragglersQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	// The budget covers the slowest unmitigated convergence (SSP under the
	// congested link, 39m26s), so a mitigation's effect shows as a time.
	o := Options{
		Workers:    6,
		Seed:       1,
		Size:       cluster.SizeSmall,
		MaxVirtual: 40 * time.Minute,
	}
	r, err := Stragglers(o)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(stragglerProfiles()) * len(stragglersRoster()) * len(stragglerMitigations())
	if len(r.Cells) != wantCells {
		t.Fatalf("matrix produced %d cells, want %d", len(r.Cells), wantCells)
	}
	if !r.Reproducible {
		for _, c := range r.Cells {
			if !c.Reproducible {
				t.Errorf("cell %s: double-run trace digests diverged", c.Name)
			}
		}
		t.Fatal("matrix is not deterministic")
	}
	byName := map[string]StragglerCell{}
	var missed []string
	for _, c := range r.Cells {
		byName[c.Name] = c
		if c.TotalIters == 0 {
			t.Errorf("cell %s did no iterations", c.Name)
		}
		if c.Recall != 1 {
			t.Errorf("cell %s: detector recall %.2f, want 1 (missed a planned straggler)", c.Name, c.Recall)
		}
		if !c.Converged {
			missed = append(missed, c.Name)
		}
	}
	// Virtual time is deterministic, so the set of cells that converge is
	// exact: every cell but unmitigated BSP behind the congested link. A
	// mitigation that costs convergence fails here.
	if want := []string{"BSP/congest/none"}; !slices.Equal(missed, want) {
		t.Errorf("cells that missed the target %q, want %q", missed, want)
	}
	// The mitigations must actually act on every profile: clone cells race at
	// least one backup (deduping the loser's pushes), rebalance cells swap at
	// least one member.
	for _, c := range r.Cells {
		switch c.Mitigation {
		case "clone":
			if c.Clones == 0 {
				t.Errorf("cell %s: no clone started", c.Name)
			}
			if c.CloneDeduped == 0 {
				t.Errorf("cell %s: clone raced nobody (0 deduped pushes)", c.Name)
			}
		case "rebalance":
			if c.Rebalances == 0 {
				t.Errorf("cell %s: no member swapped", c.Name)
			}
		}
	}
	// The qualitative findings the matrix exists to show. Sustained slowdown
	// (degrade) hurts BSP more than the stale-tolerant schemes, and each
	// mitigation beats doing nothing on its target profile.
	if bsp, spec := byName["BSP/degrade/none"], byName["SpecSync-Adaptive/degrade/none"]; bsp.TotalIters >= spec.TotalIters {
		t.Errorf("degrade: BSP did %d iters, SpecSync %d; BSP should degrade more", bsp.TotalIters, spec.TotalIters)
	}
	for _, prof := range []string{"degrade", "rack"} {
		none, clone := byName["BSP/"+prof+"/none"], byName["BSP/"+prof+"/clone"]
		if clone.TotalIters <= none.TotalIters {
			t.Errorf("%s: clone mitigation did %d iters vs %d unmitigated, want an improvement",
				prof, clone.TotalIters, none.TotalIters)
		}
		rebal := byName["BSP/"+prof+"/rebalance"]
		if rebal.Converged && none.Converged && rebal.ConvergeTime >= none.ConvergeTime {
			t.Errorf("%s: rebalance converged in %v vs %v unmitigated, want an improvement",
				prof, rebal.ConvergeTime, none.ConvergeTime)
		}
	}

	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "all cells reproducible=true") {
		t.Errorf("render missing the reproducibility verdict:\n%s", sb.String())
	}
}
