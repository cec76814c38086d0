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

// Golden digests (SHA-256 over the JSONL serialization of the full event
// trace), first captured from the pre-codec build and re-recorded once when
// push replies began carrying the next pull. The raw codec is required to
// match them byte for byte: same messages, same simulated timings, same
// events, same transfer bytes.
const (
	goldenTinyDigest = "034614cb4cdeaa6cb9b90bc8a31861d2f6d9eeeb7ff246f9fc667274cba4b87a"
	goldenTinyEvents = 158
	goldenTinyBytes  = 23448

	goldenMFDigest = "1764fdb4be0ecf15dd0ad9dbac1ff8496ca026489996a6f5eae1c19c07eab045"
	goldenMFEvents = 530
	goldenMFBytes  = 3567584
)

func runDigest(t *testing.T, wl Workload, seed int64, cc codec.Config) (digest string, events int, bytesOnWire int64, res *Result) {
	t.Helper()
	res, err := Run(Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Workers:    4,
		Seed:       seed,
		Codec:      cc,
		MaxVirtual: 2 * time.Minute,
		KeepTrace:  true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	evs := res.Trace.Events()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), len(evs), res.Transfer.TotalBytes(), res
}

// TestRawCodecByteIdentical asserts the acceptance criterion that the
// default raw codec reproduces the pre-PR build bit-for-bit: the full event
// trace (including virtual timestamps, which depend on every message's
// encoded size) and the transfer byte totals match golden values recorded
// before the codec subsystem existed. Both an explicit "raw" and the zero
// config must hit the legacy path.
func TestRawCodecByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		build  func() (Workload, error)
		digest string
		events int
		bytes  int64
	}{
		{"tiny", 7, func() (Workload, error) { return NewTiny(4, 7) }, goldenTinyDigest, goldenTinyEvents, goldenTinyBytes},
		{"mf", 3, func() (Workload, error) { return NewMF(SizeSmall, 4, 3) }, goldenMFDigest, goldenMFEvents, goldenMFBytes},
	}
	for _, tc := range cases {
		for _, cc := range []codec.Config{{}, {Name: "raw"}} {
			wl, err := tc.build()
			if err != nil {
				t.Fatalf("%s: build workload: %v", tc.name, err)
			}
			digest, events, bytesOnWire, _ := runDigest(t, wl, tc.seed, cc)
			if events != tc.events {
				t.Errorf("%s codec=%q: %d events, golden %d", tc.name, cc.Name, events, tc.events)
			}
			if bytesOnWire != tc.bytes {
				t.Errorf("%s codec=%q: %d bytes on wire, golden %d", tc.name, cc.Name, bytesOnWire, tc.bytes)
			}
			if digest != tc.digest {
				t.Errorf("%s codec=%q: trace digest %s, golden %s", tc.name, cc.Name, digest, tc.digest)
			}
		}
	}
}
