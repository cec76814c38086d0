package cluster

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specsync/internal/elastic"
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
	// combined-kill double run (-replicas 1 -standby-schedulers 1 -fault-plan).
	for name, want := range map[string]string{
		"tiny-adaptive.json":    "dde14eb27aba36c8434ae689513b53e078231aa3ec491fdfe5940ef3ced0ea52",
		"stragglers-clone.json": "c7085fdaea411c13c8fe54d399fba4dd2c277d3dc3b674c68fd619704d03d135",
		"combined-kill.json":    "b765395e2631add03f083b9b8c6197b6069a095a7bdb5893510d9033d773ccdd",
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
	// A scale plan's capacity sizes the workload's data shards.
	cfg, err = DecodeSpec([]byte(`{"workload": {"name": "tiny"}, "scheme": {"base": "ASP"}, "workers": 2, "seed": 1,
		"max_virtual": 60000000000, "scale": {"events": [{"kind": "add-worker", "at": 1000000000, "node": 5}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Workload.Model.NumShards(); n != 6 {
		t.Errorf("workload built with %d data shards, want the plan's 6", n)
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
	grow := elastic.GrowShrink(4, 1, 4, 0, time.Second, 0)
	slow := &stragglers.Plan{Events: []stragglers.Event{{Kind: stragglers.KindDegrade, At: time.Second, Worker: 1, Speed: 0.5}}}
	cherry := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: time.Second, AbortRate: 0.2}
	broadcast := cherry
	broadcast.Decentralized = true
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"scale x faults", func(c *Config) { c.Scale, c.Faults = grow, crash }, "Scale cannot be combined with Faults"},
		{"scale x churn", func(c *Config) {
			c.Scale, c.Churn = grow, &faults.ChurnConfig{Crashes: 1, Horizon: time.Second}
		}, "Scale cannot be combined with Faults"},
		{"scale x decentralized", func(c *Config) { c.Scale, c.Scheme = grow, broadcast }, "decentralized"},
		{"faults x churn", func(c *Config) {
			c.Faults, c.Churn = crash, &faults.ChurnConfig{Crashes: 1, Horizon: time.Second}
		}, "Faults cannot be combined with Churn"},
		{"replication x scale", func(c *Config) { c.Replication.Replicas, c.Scale = 1, grow }, "Replication cannot be combined with Scale"},
		{"replication x non-crash plan", func(c *Config) { c.Replication.Replicas, c.Faults = 1, drop }, "crash-only"},
		{"stragglers x faults", func(c *Config) { c.Stragglers, c.Faults = slow, crash }, "Stragglers cannot be combined with Faults"},
		{"stragglers x scale", func(c *Config) { c.Stragglers, c.Scale = slow, grow }, "Stragglers cannot be combined with Scale"},
		{"mitigation without plan", func(c *Config) { c.Mitigation = stragglers.MitigateClone }, "without a straggler plan"},
		{"mitigation x decentralized", func(c *Config) {
			c.Stragglers, c.Mitigation, c.Scheme = slow, stragglers.MitigateClone, broadcast
		}, "centralized scheduler"},
		{"mitigation x meta-scheme", func(c *Config) {
			c.Stragglers, c.Mitigation, c.Scheme = slow, stragglers.MitigateRebalance, scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta}
		}, "mitigation cannot be combined with the meta-scheme"},
		{"mitigation x replication", func(c *Config) {
			c.Stragglers, c.Mitigation, c.Replication.StandbySchedulers = slow, stragglers.MitigateClone, 1
		}, "mitigation cannot be combined with Replication"},
		{"policy x decentralized", func(c *Config) {
			c.Scheme = scheme.Config{Base: scheme.SSP, Staleness: 2, Spec: scheme.SpecFixed, AbortTime: time.Second,
				AbortRate: 0.2, Decentralized: true, Policy: scheme.PolicyMeta}
		}, "policy meta requires the centralized scheduler"},
		{"standby schedulers x decentralized", func(c *Config) {
			c.Replication.StandbySchedulers, c.Scheme = 1, broadcast
		}, "standby schedulers cannot be combined with decentralized"},
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
