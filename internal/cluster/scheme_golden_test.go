package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// Golden digests captured from the pre-scheme-zoo build (SHA-256 over the
// JSONL serialization of the full event trace, same recipe as the codec
// identity test). Every pre-existing scheme must stay byte-identical after
// the scheme-dispatch refactor that made the active scheme a runtime value:
// same messages, same simulated timings, same events. The hetero cases pin
// runs with unequal worker speeds so the straggler/span paths are covered
// too. The cells whose pushes fetch the next pull (every one but the BSP
// pair, which never starts an iteration before a release) were re-recorded
// when push replies began carrying it; the BSP pair never moved.
const (
	goldenSchemeOriginalDigest = "8fd9be64c5a84db8e866d6d47540bd4cdaf3ebcb0bdd536f488c56ced1167855"
	goldenSchemeBSPDigest      = "ab47754768cae57638594445f37b12fede5abaf86843698be56c5a3a7b24272c"
	goldenSchemeSSPDigest      = "c66dd6507b9b9892ce84e3fb5e0c3400088295703cecc1f5087b01804f42c34d"
	goldenSchemeCherryDigest   = "b96ceb973d4c28eb01cc480b8971fde27229460e9961d3ddf710995c682f9c10"
	goldenSchemeAdaptiveDigest = "034614cb4cdeaa6cb9b90bc8a31861d2f6d9eeeb7ff246f9fc667274cba4b87a"
	goldenSchemeHeteroBSP      = "6538e804f4b34ee5ac2b1d898055ee812e36c7ba9bef92d5371f5c51999809f6"
	goldenSchemeHeteroSSP      = "ce8a07b01abb73dee986b0d2bb7823b72056fabb195140197693284a457e49d2"
)

func schemeDigest(t *testing.T, sc scheme.Config, speeds []float64) string {
	t.Helper()
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("build workload: %v", err)
	}
	res, err := Run(Config{
		Workload:   wl,
		Scheme:     sc,
		Workers:    4,
		Seed:       7,
		Speeds:     speeds,
		MaxVirtual: 2 * time.Minute,
		KeepTrace:  true,
	})
	if err != nil {
		t.Fatalf("run %s: %v", sc.Name(), err)
	}
	evs := res.Trace.Events()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestPreexistingSchemesByteIdentical pins every scheme that predates the
// scheme zoo against digests recorded from the seed build, proving the
// runtime-scheme dispatch refactor introduced no silent behavior drift.
func TestPreexistingSchemesByteIdentical(t *testing.T) {
	hetero := []float64{1, 1, 1, 0.55}
	cases := []struct {
		name   string
		sc     scheme.Config
		speeds []float64
		digest string
	}{
		{"original", scheme.Config{Base: scheme.ASP}, nil, goldenSchemeOriginalDigest},
		{"bsp", scheme.Config{Base: scheme.BSP}, nil, goldenSchemeBSPDigest},
		{"ssp3", scheme.Config{Base: scheme.SSP, Staleness: 3}, nil, goldenSchemeSSPDigest},
		{"cherry", scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: 100 * time.Millisecond, AbortRate: 0.22}, nil, goldenSchemeCherryDigest},
		{"adaptive", scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, nil, goldenSchemeAdaptiveDigest},
		{"hetero-bsp", scheme.Config{Base: scheme.BSP}, hetero, goldenSchemeHeteroBSP},
		{"hetero-ssp", scheme.Config{Base: scheme.SSP, Staleness: 3}, hetero, goldenSchemeHeteroSSP},
	}
	for _, tc := range cases {
		got := schemeDigest(t, tc.sc, tc.speeds)
		if got != tc.digest {
			t.Errorf("%s: trace digest %s, golden %s", tc.name, got, tc.digest)
		}
	}
}
