package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specsync/internal/faults"
	"specsync/internal/model"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/tensor"
)

// TestCommittedSpecs decodes and validates every committed run spec, checks
// that each survives a JSON round trip, and runs three of them to the final
// parameters the equivalent command lines reached before specs existed.
func TestCommittedSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs: %v", err)
	}
	for _, path := range paths {
		cfg, err := LoadSpec(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		once, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		back, err := DecodeSpec(once)
		if err != nil {
			t.Errorf("%s: re-decoding its own encoding: %v", path, err)
			continue
		}
		if twice, _ := json.Marshal(back); !bytes.Equal(once, twice) {
			t.Errorf("%s: round trip changed the spec\n%s\n%s", path, once, twice)
		}
	}

	// Digests of `specsync -workload tiny -workers 4 -scheme adaptive -max
	// 15m`, of `specsync -workload mf -workers 4 -seed 1 -max 10m -stragglers
	// degrade:3x0.25@10s -mitigate clone`, and of the replicated
	// combined-kill double run (-replicas 1 -standby-schedulers 1 -fault-plan),
	// re-recorded when push replies began carrying the next pull.
	for name, want := range map[string]string{
		"tiny-adaptive.json":    "f557b21a80a06277411fc8ce28ca2e517cbb6d0e584a0dbaf9fa52d00f95ce45",
		"stragglers-clone.json": "c6ff64c2c36a7fa23050aeae0118b0d1b0f6a65300440548a6d24cf368716760",
		"combined-kill.json":    "86c969a49ce63632f1e88e2e8cf774ef29ecdb5d2f00dc7c0f67c65353cd1f51",
	} {
		cfg, err := LoadSpec(filepath.Join("..", "..", "examples", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ParamsDigest != want {
			t.Errorf("%s: params digest %s, want %s", name, res.ParamsDigest, want)
		}
	}
}

// TestSpecRejectsUnknownKeys: a misspelled key fails anywhere in the
// document instead of falling back to a default.
func TestSpecRejectsUnknownKeys(t *testing.T) {
	const good = `{"workload": {"name": "tiny"}, "scheme": {"base": "ASP"}, "workers": 4, "seed": 1, "max_virtual": 60000000000}`
	if _, err := DecodeSpec([]byte(good)); err != nil {
		t.Fatalf("good spec: %v", err)
	}
	for _, typo := range []struct{ from, to string }{
		{`"workers"`, `"worker"`},
		{`"name": "tiny"`, `"name": "tiny", "iter": 5`},
		{`"base": "ASP"`, `"base": "ASP", "stalenes": 3`},
		{`"seed": 1`, `"seed": 1, "replication": {"replica": 1}`},
		{`"seed": 1`, `"seed": 1, "faults": {"events": [{"kind": "crash-worker", "at": 1, "restart-after": 1}]}`},
		{`"base": "ASP"`, `"base": "BSP", "quorom": 0.75`},
		// The retired scale plan's key is unknown like any misspelling.
		{`"seed": 1`, `"seed": 1, "scale": {"events": [{"kind": "add-worker", "at": 1, "node": 4}]}`},
	} {
		doc := strings.Replace(good, typo.from, typo.to, 1)
		if _, err := DecodeSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err %v, want an unknown-field error", doc, err)
		}
	}
}

// TestSpecWorkloadOverrides: keys beside the workload name override the
// named profile, an explicit zero included, and leave the rest alone.
func TestSpecWorkloadOverrides(t *testing.T) {
	cfg, err := DecodeSpec([]byte(`{"workload": {"name": "cifar10-small", "momentum": 0, "iter_time": 500000000},
		"scheme": {"base": "ASP"}, "workers": 4, "seed": 3, "max_virtual": 60000000000, "hetero": true}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCIFAR(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	wl := cfg.Workload
	if wl.Momentum != 0 || wl.IterTime != 500*time.Millisecond {
		t.Errorf("overrides not applied: momentum %v, iter %v", wl.Momentum, wl.IterTime)
	}
	if wl.TargetLoss != want.TargetLoss || wl.JitterSigma != want.JitterSigma || wl.Model.Dim() != want.Model.Dim() {
		t.Errorf("untouched fields moved: %+v", wl)
	}
	if speeds := cfg.WithDefaults().Speeds; len(speeds) != 4 || speeds[0] != InstanceSpeeds(4)[0] {
		t.Errorf("hetero spec speeds %v, want InstanceSpeeds(4)", speeds)
	}
}

// TestWorkloadByName resolves every workload name and rejects the rest.
func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"tiny", "mf-small", "cifar10-small", "imagenet-small"} {
		wl, err := WorkloadByName(name, 4, 1)
		if err != nil || wl.Model == nil || wl.Model.NumShards() != 4 {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"", "nope", "mf-smal", "cifar10-full"} {
		if _, err := WorkloadByName(bad, 4, 1); err == nil || !strings.Contains(err.Error(), "unknown workload") {
			t.Errorf("%q: err %v", bad, err)
		}
	}
}

// initCounter counts Init calls: Run draws the initial parameters right
// before it builds the first node.
type initCounter struct {
	model.Model
	inits int
}

func (m *initCounter) Init(rng *rand.Rand) tensor.Vec {
	m.inits++
	return m.Model.Init(rng)
}

// TestConfigValidateExclusions has one row per combination of subsystems a
// run does not support. Each must fail in Validate, and Run must return the
// same error before it builds anything.
func TestConfigValidateExclusions(t *testing.T) {
	crash := &faults.Plan{Events: []faults.Event{{Kind: faults.KindCrashWorker, At: time.Second, Node: 1}}}
	drop := &faults.Plan{Events: []faults.Event{{Kind: faults.KindDrop, At: time.Second, Duration: time.Second}}}
	slow := &stragglers.Plan{Events: []stragglers.Event{{Kind: stragglers.KindDegrade, At: time.Second, Worker: 1, Speed: 0.5}}}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"faults x churn", func(c *Config) {
			c.Faults, c.Churn = crash, &faults.ChurnConfig{Crashes: 1, Horizon: time.Second}
		}, "Faults cannot be combined with Churn"},
		{"replication x non-crash plan", func(c *Config) { c.Replication.Replicas, c.Faults = 1, drop }, "crash-only"},
		{"stragglers x faults", func(c *Config) { c.Stragglers, c.Faults = slow, crash }, "Stragglers cannot be combined with Faults"},
		{"mitigation without plan", func(c *Config) { c.Mitigation = stragglers.MitigateClone }, "without a straggler plan"},
		{"mitigation x meta-scheme", func(c *Config) {
			c.Stragglers, c.Mitigation, c.Scheme = slow, stragglers.MitigateRebalance, scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta}
		}, "mitigation cannot be combined with the meta-scheme"},
		{"mitigation x replication", func(c *Config) {
			c.Stragglers, c.Mitigation, c.Replication.StandbySchedulers = slow, stragglers.MitigateClone, 1
		}, "mitigation cannot be combined with Replication"},
	}
	for _, tc := range cases {
		wl, err := NewTiny(5, 1)
		if err != nil {
			t.Fatal(err)
		}
		counter := &initCounter{Model: wl.Model}
		wl.Model = counter
		cfg := Config{Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 1, MaxVirtual: time.Minute}
		tc.mut(&cfg)
		err = cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
			continue
		}
		if _, runErr := Run(cfg); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%s: Run = %v, want Validate's %v", tc.name, runErr, err)
		}
		if counter.inits != 0 {
			t.Errorf("%s: Run built the cluster before refusing it", tc.name)
		}
	}
}
