package cluster

import (
	"math"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// TestTopKShrinksPushesAndShiftsTiming asserts the two observable effects a
// push codec must have in the DES: measurably fewer push bytes on the wire
// (for top-k and q8 alike), and a different push schedule — transfer time
// derives from encoded size, so smaller pushes land earlier and the run takes
// a different trajectory.
func TestTopKShrinksPushesAndShiftsTiming(t *testing.T) {
	wl, err := NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, rawRes := runDigest(t, wl, 3, codec.Config{})
	wl2, err := NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	topkDigest, _, _, topkRes := runDigest(t, wl2, 3, codec.Config{Name: "topk", TopKFrac: 0.1})

	rawPushBytes, rawPushes := rawRes.Codec.KindBytes(msg.KindPushReq, "raw")
	topkPushBytes, topkPushes := topkRes.Codec.KindBytes(msg.KindPushReqV2, "topk")
	if rawPushes == 0 || topkPushes == 0 {
		t.Fatalf("missing push traffic: raw %d msgs, topk %d msgs", rawPushes, topkPushes)
	}
	rawPerPush := float64(rawPushBytes) / float64(rawPushes)
	topkPerPush := float64(topkPushBytes) / float64(topkPushes)
	if topkPerPush >= rawPerPush/2 {
		t.Errorf("topk bytes/push = %.0f, raw = %.0f; want topk well under half", topkPerPush, rawPerPush)
	}
	if r := topkRes.Codec.Ratio(codec.IDTopK); r >= 0.5 {
		t.Errorf("topk compression ratio %.3f, want < 0.5", r)
	}

	// The other lossy push codec must shrink pushes too.
	wl3, err := NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, q8Res := runDigest(t, wl3, 3, codec.Config{Name: "q8"})
	q8PushBytes, q8Pushes := q8Res.Codec.KindBytes(msg.KindPushReqV2, "q8")
	if q8Pushes == 0 {
		t.Fatal("missing q8 push traffic")
	}
	if q8PerPush := float64(q8PushBytes) / float64(q8Pushes); q8PerPush >= rawPerPush {
		t.Errorf("q8 bytes/push = %.0f, not below raw %.0f", q8PerPush, rawPerPush)
	}

	// Timing shift: smaller pushes transfer faster, so the topk trace must
	// diverge from the raw golden trace.
	if topkDigest == goldenMFDigest {
		t.Error("topk trace is byte-identical to the raw golden trace; push timing did not change")
	}
}

// TestDeltaPullSavesBytes asserts the pull-side delta codec re-sends less
// than full blocks: under ASP a worker often re-pulls a shard that only a
// few other pushes touched since its last pull.
func TestDeltaPullSavesBytes(t *testing.T) {
	wl, err := NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, res := runDigest(t, wl, 3, codec.Config{Name: "delta"})
	raw, enc, blocks := res.Codec.EncodeTotals(codec.IDDelta)
	if blocks == 0 {
		t.Fatal("delta codec never encoded a pull")
	}
	if enc >= raw {
		t.Errorf("delta pulls encoded %d bytes for %d dense-equivalent; expected savings", enc, raw)
	}
}

// TestTopKRepliesCarryChangedEntries: under momentum-free top-k every push
// applies as the entries it carries, so the shards answer fused pushes with
// only the entries written since each worker's block — under half of what
// the full blocks would cost — and the run moves fewer reply bytes than the
// raw run, whose replies are full blocks.
func TestTopKRepliesCarryChangedEntries(t *testing.T) {
	replyBytes := func(res *Result) int64 {
		var sum int64
		for _, k := range []wire.Kind{msg.KindPullResp, msg.KindPullRespV2} {
			b, _ := res.Transfer.KindBytes(k)
			sum += b
		}
		return sum
	}
	wl, err := NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, rawRes := runDigest(t, wl, 3, codec.Config{})
	wl, err = NewMF(SizeSmall, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, res := runDigest(t, wl, 3, codec.Config{Name: "topk", TopKFrac: 0.1})
	dense, enc, blocks := res.Codec.EncodeTotals(codec.IDDelta)
	if blocks == 0 || 2*enc >= dense {
		t.Errorf("%d delta replies encoded %d bytes for %d dense-equivalent; want deltas under half", blocks, enc, dense)
	}
	if got, raw := replyBytes(res), replyBytes(rawRes); 2*got >= raw {
		t.Errorf("top-k replies moved %d bytes, the raw run's %d; want under half", got, raw)
	}
}

// TestCodecConvergenceGuard asserts lossy codecs with error feedback stay
// close to the raw baseline: MF under topk (k=10%) and q8 must reach a final
// loss within a small tolerance of raw, across the adaptive, BSP, and SSP
// schemes. This is the guard against a codec that compresses well but
// quietly destroys training.
func TestCodecConvergenceGuard(t *testing.T) {
	schemes := map[string]scheme.Config{
		"adaptive": {Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		"bsp":      {Base: scheme.BSP},
		"ssp":      {Base: scheme.SSP, Staleness: 3},
	}
	codecs := map[string]codec.Config{
		"raw":  {},
		"topk": {Name: "topk", TopKFrac: 0.1},
		"q8":   {Name: "q8"},
	}
	const tolerance = 0.02

	for schemeName, sc := range schemes {
		losses := map[string]float64{}
		for codecName, cc := range codecs {
			wl, err := NewMF(SizeSmall, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			wl.TargetLoss = 0 // run the full horizon so final losses compare
			res, err := Run(Config{
				Workload:   wl,
				Scheme:     sc,
				Workers:    4,
				Seed:       3,
				Codec:      cc,
				MaxVirtual: 2 * time.Minute,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", schemeName, codecName, err)
			}
			losses[codecName] = res.FinalLoss
		}
		for _, codecName := range []string{"topk", "q8"} {
			diff := math.Abs(losses[codecName] - losses["raw"])
			if diff > tolerance {
				t.Errorf("%s: %s final loss %.4f vs raw %.4f (|diff| %.4f > %.4f)",
					schemeName, codecName, losses[codecName], losses["raw"], diff, tolerance)
			}
		}
		t.Logf("%s: raw=%.4f topk=%.4f q8=%.4f", schemeName, losses["raw"], losses["topk"], losses["q8"])
	}
}
