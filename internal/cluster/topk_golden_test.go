package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// TestTopKDigestsPinned pins the final parameters and the full event trace of
// three top-k runs, so any change to how a top-k push is encoded, decoded or
// applied, or to how its reply is built, must reproduce them bit for bit:
//
//   - mf: sparse MF under top-k 10 %, clip 5, no momentum, so its push
//     replies are deltas of the entries written since the worker's block
//     (the trace was re-recorded when they became so; 2 504 863 → 1 239 429
//     data bytes, parameters unchanged);
//   - cifar: the CIFAR-small MLP under top-k, momentum 0.9, clip 10, whose
//     momentum writes every entry, so its replies stay full blocks;
//   - replicated: tiny under top-k, momentum 0.5, one backup per shard,
//     whose shard 0 crashes, so the final parameters of that shard are the
//     promoted backup's, built by replaying the forwarded payloads.
func TestTopKDigestsPinned(t *testing.T) {
	topk := codec.Config{Name: "topk", TopKFrac: 0.1}
	cells := []struct {
		name           string
		cfg            func() Config
		params, events string
	}{
		{"mf", func() Config {
			wl, err := NewMF(SizeSmall, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Workload: wl, Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
				Workers: 4, Seed: 3, Codec: topk, MaxVirtual: 2 * time.Minute,
			}
		}, "e55dbf372b1881a599c007784bec3550f402b8ba578736394ba18a6845aa5320",
			"492823fd7979f0006a57eeb4929cf56b45b655edc5d0d4b2b526637548163110"},
		{"cifar", func() Config {
			wl, err := NewCIFAR(SizeSmall, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			wl.Momentum = 0.9
			return Config{
				Workload: wl, Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
				Workers: 4, Servers: 2, Seed: 5, Codec: topk, MaxVirtual: 10 * time.Minute,
			}
		}, "1dcf3c5ef402a3a34fcb900081813c389d26a2115295315b8b553de97bdabe90",
			"14fff01fd274ba35da8124e8a126538643513bfd28dc38b835f7c7d51b5f190d"},
		{"replicated", func() Config {
			cfg := zeroLossConfig(t, func(c *Config) {
				c.Replication = Replication{Replicas: 1}
				c.Faults = serverCrashPlan()
				c.Codec = topk
			})
			cfg.Workload.Momentum = 0.5
			return cfg
		}, "45c39c43fd4bee3b673f5077a3ae45c4adc076fe555554f5b52f467230c0e0ba",
			"043f032c70ec312235f34cb180b20cc9c70b71e1bff12843d5724367804c3190"},
	}
	for _, cell := range cells {
		cfg := cell.cfg()
		cfg.KeepTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		if res.TotalIters == 0 {
			t.Fatalf("%s: no iterations", cell.name)
		}
		if cfg.Faults != nil && (res.Faults.Promotions != 1 || res.Replication.Applied == 0) {
			t.Fatalf("%s: %d promotions, %d forwarded pushes applied; want a backup promoted after replaying",
				cell.name, res.Faults.Promotions, res.Replication.Applied)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		events := hex.EncodeToString(sum[:])
		if res.ParamsDigest != cell.params || events != cell.events {
			t.Errorf("%s: params digest %s, trace digest %s; pinned %s, %s",
				cell.name, res.ParamsDigest, events, cell.params, cell.events)
		}
	}
}
