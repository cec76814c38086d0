package cluster

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"specsync/internal/faults"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
)

// TestConfigValidateTCP has one row per subsystem the TCP runtime refuses,
// and rows for what it admits. Every refusal is Validate's business too: a
// spec Validate refuses is refused first with Validate's error.
func TestConfigValidateTCP(t *testing.T) {
	crash := &faults.Plan{Events: []faults.Event{{Kind: faults.KindCrashWorker, At: time.Second, Node: 1}}}
	slow := &stragglers.Plan{Events: []stragglers.Event{{Kind: stragglers.KindDegrade, At: time.Second, Worker: 1, Speed: 0.5}}}
	congest := &stragglers.Plan{Events: []stragglers.Event{{Kind: stragglers.KindCongest, At: time.Second, Duration: time.Second, Worker: 1, Speed: 0.25}}}
	cases := []struct {
		name        string
		mut         func(*Config)
		want        string // error substring; "" means admitted
		wantWarning string
	}{
		{"faults", func(c *Config) { c.Faults = crash }, "fault and churn plans run only on the simulator", ""},
		{"churn", func(c *Config) { c.Churn = &faults.ChurnConfig{Crashes: 1, Horizon: time.Second} }, "fault and churn plans run only on the simulator", ""},
		{"mitigation", func(c *Config) { c.Stragglers, c.Mitigation = slow, stragglers.MitigateClone }, "straggler mitigation runs only on the simulator", ""},
		{"invalid first", func(c *Config) { c.Mitigation = stragglers.MitigateClone }, "without a straggler plan", ""},
		{"plain", func(c *Config) {}, "", ""},
		{"hetero", func(c *Config) { c.Hetero = true }, "", ""},
		{"replication", func(c *Config) { c.Replication.Replicas, c.Replication.StandbySchedulers = 1, 1 }, "", ""},
		{"policy", func(c *Config) { c.Scheme = scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta} }, "", ""},
		{"stragglers", func(c *Config) { c.Stragglers = slow }, "", ""},
		{"congest", func(c *Config) { c.Stragglers = congest }, "", "congest episodes in the plan are ignored on the TCP transport"},
	}
	for _, tc := range cases {
		wl, err := NewTiny(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 1, MaxVirtual: time.Minute}
		tc.mut(&cfg)
		warning, err := cfg.ValidateTCP()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: ValidateTCP = %v, want admitted", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: ValidateTCP = %v, want %q", tc.name, err, tc.want)
		case !strings.Contains(warning, tc.wantWarning) || (tc.wantWarning == "") != (warning == ""):
			t.Errorf("%s: warning %q, want %q", tc.name, warning, tc.wantWarning)
		}
	}
}

// TestLoopbackRunsCommittedSpecs runs every committed tiny spec the TCP
// runtime admits as a live loopback cluster, at 20 ms iterations and 20
// iterations per worker, and checks what the nodes end with: every worker
// at its budget, every push applied once (without retries, which may
// duplicate one), backups identical to their primaries, and a digest.
func TestLoopbackRunsCommittedSpecs(t *testing.T) {
	// Specs the TCP runtime admits but this test does not run: their mf and
	// cifar10 workloads (up to 40 workers) train real models whose gradient
	// work per iteration dwarfs a 20 ms iteration on one machine.
	skip := map[string]bool{
		"cifar10-adaptive.json": true, "trace-cifar10-asp.json": true,
		"mf-meta-scheme.json": true, "mf-sync-switch.json": true, "mf-topk.json": true,
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs: %v", err)
	}
	ran := 0
	for _, path := range paths {
		name := filepath.Base(path)
		if skip[name] {
			continue
		}
		cfg, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.ValidateTCP(); err != nil {
			continue
		}
		if cfg.Workload.Name != "tiny" {
			t.Errorf("%s: admitted %s spec is neither run nor skipped", name, cfg.Workload.Name)
			continue
		}
		ran++
		t.Run(strings.TrimSuffix(name, ".json"), func(t *testing.T) {
			const iters = 20
			cfg.Workload.IterTime, cfg.MaxItersPerWorker = 20*time.Millisecond, iters
			cfg.MaxVirtual = 20 * time.Second // a hang fails instead of waiting out the spec's budget
			res, n, err := runLoopback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, wk := range n.workers {
				if got := wk.IterationsDone(); got != iters {
					t.Errorf("worker %d: %d iterations, want %d", i, got, iters)
				}
			}
			if want := int64(cfg.Workers * iters); res.TotalIters != want {
				t.Errorf("TotalIters %d, want %d", res.TotalIters, want)
			}
			if res.ParamsDigest == "" {
				t.Error("no params digest")
			}
			for shard, srv := range n.servers {
				if cfg.RetryAfter == 0 && srv.Version() != res.TotalIters {
					t.Errorf("shard %d applied %d pushes, want one per iteration (%d)", shard, srv.Version(), res.TotalIters)
				}
				for r, rep := range n.replicas[shard] {
					if rep.Version() != srv.Version() || !slices.Equal(rep.Params(), srv.Params()) {
						t.Errorf("replica %d of shard %d at version %d, primary at %d; params equal %v",
							r+1, shard, rep.Version(), srv.Version(), slices.Equal(rep.Params(), srv.Params()))
					}
				}
			}
		})
	}
	if ran < 8 {
		t.Errorf("ran %d committed specs, want at least the 8 tiny ones TCP admits", ran)
	}
}
