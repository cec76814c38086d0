//go:build !race

package codec

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/wire"
)

// maxTopKOverRaw bounds top-k's encode time as a multiple of raw's. Raw is
// wire.Writer.Float64s, which codes a block four values per step; against it
// the histogram selection runs at about 4x, where a full sort would take
// about 250x. A ratio measured in one process holds on any machine; the race
// detector's instrumentation does not slow both sides alike, hence the build
// constraint.
const maxTopKOverRaw = 9

// TestTopKEncodeCostOverRaw times both encoders on the 4096-value block of the
// small DES workloads and the 8192-value shard of the tcp_topk ledger
// workload. Each pass cycles through 16 distinct blocks (re-encoding one lets
// the branch predictor learn the block), and each side keeps its fastest of
// several interleaved passes, so a stall on a busy host inflates neither.
func TestTopKEncodeCostOverRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4096, 8192} {
		blocks := make([][]float64, 16)
		for i := range blocks {
			blocks[i] = make([]float64, n)
			for j := range blocks[i] {
				blocks[i][j] = rng.NormFloat64() * 0.1
			}
		}
		debit := make([]float64, n)
		w := wire.NewWriter(8 * n)
		pass := func(c Codec, reps int) time.Duration {
			start := time.Now()
			for r := 0; r < reps; r++ {
				for _, vals := range blocks {
					w.Reset()
					c.Encode(w, vals, nil, debit, nil)
				}
			}
			return time.Since(start) / time.Duration(reps*len(blocks))
		}
		raw, topk := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 7; i++ {
			raw = min(raw, pass(Raw{}, 64))
			topk = min(topk, pass(TopK{Frac: DefaultTopKFrac}, 4))
		}
		if ratio := float64(topk) / float64(raw); ratio > maxTopKOverRaw {
			t.Errorf("topk at %d values: encode costs %.1f raw encodes (%v / %v), limit %d",
				n, ratio, topk, raw, maxTopKOverRaw)
		}
	}
}
