package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"specsync/internal/cluster"
)

func TestSchemesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	// The budget is one every scheme needs on the steady fleet (BSP converges
	// at 18m46s), so which cells miss it is the finding under test.
	o := Options{
		Workers:    6,
		Seed:       1,
		Size:       cluster.SizeSmall,
		MaxVirtual: 20 * time.Minute,
	}
	r, err := Schemes(o)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(schemesRoster()) * len(schemesScenarios(o.Seed))
	if len(r.Cells) != wantCells {
		t.Fatalf("shootout produced %d cells, want %d", len(r.Cells), wantCells)
	}
	if !r.Reproducible {
		for _, c := range r.Cells {
			if !c.Reproducible {
				t.Errorf("cell %s: double-run trace digests diverged", c.Name)
			}
		}
		t.Fatal("shootout is not deterministic")
	}
	byName := map[string]SchemeCell{}
	var missed []string
	for _, c := range r.Cells {
		byName[c.Name] = c
		if c.TotalIters == 0 {
			t.Errorf("cell %s did no iterations", c.Name)
		}
		if !c.Converged {
			missed = append(missed, c.Name)
		}
	}
	// Virtual time is deterministic, so the set of cells that converge is
	// exact: the schemes that shed or outrun the straggler converge through
	// it and the barrier-bound ones do not. PSP(β=0.75) needs 5 of 6
	// clocks, so the straggler bounds it too and it converges at 20m4s, just
	// past the budget. A cell that stops converging, or starts to, fails here.
	wantMissed := []string{
		"BSP/straggler", "SSP(s=3)/straggler", "ABS/straggler", "PSP(β=0.75)/straggler",
		"Meta(BSP↔SSP)/straggler", "SpecSync-Adaptive(ABS)/straggler",
	}
	if !slices.Equal(missed, wantMissed) {
		t.Errorf("cells that missed the target\n %q\nwant\n %q", missed, wantMissed)
	}
	// The dynamic entries must actually act: Sync-Switch hands over exactly
	// once everywhere, and the meta-scheme degrades (once, without flapping
	// back) under the persistent straggler while staying put on the
	// homogeneous fleet.
	for _, sn := range r.Scenarios {
		if c := byName["Sync-Switch(@e5)/"+sn]; c.Switches != 1 || c.FinalScheme != "ASP" {
			t.Errorf("Sync-Switch under %s: %d switches ending at %s, want exactly 1 ending at ASP",
				sn, c.Switches, c.FinalScheme)
		}
	}
	if c := byName["Meta(BSP↔SSP)/steady"]; c.Switches != 0 || c.FinalScheme != "BSP" {
		t.Errorf("meta-scheme on the homogeneous fleet: %d switches ending at %s, want 0 ending at BSP",
			c.Switches, c.FinalScheme)
	}
	if c := byName["Meta(BSP↔SSP)/straggler"]; c.Switches != 1 || !strings.HasPrefix(c.FinalScheme, "SSP(") {
		t.Errorf("meta-scheme under the persistent straggler: %d switches ending at %s, want exactly 1 ending in SSP",
			c.Switches, c.FinalScheme)
	}

	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "all cells reproducible=true") {
		t.Errorf("render missing the reproducibility verdict:\n%s", sb.String())
	}
}
