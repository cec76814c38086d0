package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"specsync/internal/scheme"
	"specsync/internal/stragglers"
)

// writeSweep writes a sweep spec into a temp dir and returns its path.
func writeSweep(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const tinyBase = `"base": {"workload": {"name": "tiny"}, "workers": 4, "seed": 1, "max_virtual": 60000000000}`

// TestParseSchemes: the schemes axis carries run-spec scheme objects, and
// the sweep expands mitigation-major, then scheme, then learning rate.
func TestParseSchemes(t *testing.T) {
	_, cells, err := loadSweep(writeSweep(t, `{`+tinyBase+`,
		"schemes": [
			{"base": "ASP"},
			{"base": "SSP", "staleness": 3},
			{"base": "ASP", "naive_wait": 1000000000},
			{"base": "ASP", "spec": "Cherrypick", "abort_time": 500000000, "abort_rate": 0.25},
			{"base": "SSP", "staleness": 2, "spec": "Adaptive"},
			{"base": "BSP", "quorum": 0.75}
		],
		"lrs": [0.05, 0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []scheme.Config{
		{Base: scheme.ASP},
		{Base: scheme.SSP, Staleness: 3},
		{Base: scheme.ASP, NaiveWait: time.Second},
		{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: 500 * time.Millisecond, AbortRate: 0.25},
		{Base: scheme.SSP, Staleness: 2, Spec: scheme.SpecAdaptive},
		{Base: scheme.BSP, Quorum: 0.75},
	}
	if len(cells) != 2*len(want) {
		t.Fatalf("got %d runs, want %d", len(cells), 2*len(want))
	}
	for i, c := range cells {
		if c.cfg.Scheme != want[i/2] {
			t.Errorf("run %d scheme = %+v, want %+v", i, c.cfg.Scheme, want[i/2])
		}
		if lr := []string{"0.050", "0.100"}[i%2]; c.lr != lr {
			t.Errorf("run %d lr = %s, want %s", i, c.lr, lr)
		}
	}
}

// TestParseSchemesErrors: every malformed or invalid axis fails before the
// first run.
func TestParseSchemesErrors(t *testing.T) {
	for _, axes := range []string{
		`"schemes": []`,
		`"schemes": [{"base": "nope"}]`,
		`"schemes": [{"base": "SSP", "stalenes": 3}]`,
		`"schemes": [{"base": "ASP", "spec": "Cherrypick"}]`,
		`"schemes": [{"base": "ASP"}], "lrs": [-0.1]`,
		`"schemes": [{"base": "ASP"}], "mitigate": ["retry"]`,
		`"schemes": [{"base": "ASP"}], "mitigate": ["clone"]`, // nothing to mitigate
		`"schemes": [{"base": "ASP"}], "lr": [0.1]`,
	} {
		if _, _, err := loadSweep(writeSweep(t, `{`+tinyBase+`, `+axes+`}`)); err == nil {
			t.Errorf("sweep with %s accepted", axes)
		}
	}
}

// TestMitigationAxis crosses schemes with mitigations under one straggler
// plan from the base spec.
func TestMitigationAxis(t *testing.T) {
	_, cells, err := loadSweep(filepath.Join("..", "..", "examples", "specs", "sweep", "mf-stragglers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []stragglers.Mitigation
	for _, c := range cells {
		got = append(got, c.cfg.Mitigation)
	}
	want := []stragglers.Mitigation{stragglers.MitigateNone, stragglers.MitigateNone, stragglers.MitigateClone, stragglers.MitigateClone}
	if !slices.Equal(got, want) {
		t.Errorf("mitigations %q, want %q", got, want)
	}
}

// TestRunRejectsUnknownSize: a typo in the workload's size suffix must fail
// before any run starts, not fall through to the hours-long full-size
// workload.
func TestRunRejectsUnknownSize(t *testing.T) {
	path := writeSweep(t, `{"base": {"workload": {"name": "mf-smal"}, "workers": 4, "seed": 1, "max_virtual": 1},
		"schemes": [{"base": "ASP"}]}`)
	err := run([]string{"-spec", path})
	if err == nil || !strings.Contains(err.Error(), `unknown workload "mf-smal"`) {
		t.Errorf("run with workload mf-smal: err = %v, want an unknown-workload error", err)
	}
}
