package codec

import (
	"math/rand"
	"testing"

	"specsync/internal/wire"
)

// benchBlock is sized like one MF shard push in the small DES workloads.
const benchBlock = 4096

func benchVals() []float64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, benchBlock)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.1
	}
	return vals
}

func benchEncode(b *testing.B, c Codec, rng *rand.Rand) {
	vals := benchVals()
	debit := make([]float64, len(vals))
	w := wire.NewWriter(len(vals) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	var encoded int64
	for i := 0; i < b.N; i++ {
		w.Reset()
		c.Encode(w, vals, nil, debit, rng)
		encoded = int64(w.Len())
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ReportMetric(float64(encoded), "bytes/block")
}

func benchDecode(b *testing.B, c Codec, rng *rand.Rand) {
	vals := benchVals()
	payload := EncodePayload(c, vals, nil, nil, rng)
	dst := make([]float64, len(vals))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decode(payload, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(vals) * 8))
}

func BenchmarkCodecRawEncode(b *testing.B)  { benchEncode(b, Raw{}, nil) }
func BenchmarkCodecRawDecode(b *testing.B)  { benchDecode(b, Raw{}, nil) }
func BenchmarkCodecTopKEncode(b *testing.B) { benchEncode(b, TopK{Frac: 0.1}, nil) }
func BenchmarkCodecTopKDecode(b *testing.B) { benchDecode(b, TopK{Frac: 0.1}, nil) }
func BenchmarkCodecQ8Encode(b *testing.B) {
	benchEncode(b, Q8{Block: DefaultQ8Block}, rand.New(rand.NewSource(2)))
}
func BenchmarkCodecQ8Decode(b *testing.B) {
	benchDecode(b, Q8{Block: DefaultQ8Block}, rand.New(rand.NewSource(2)))
}
func BenchmarkCodecDeltaEncode(b *testing.B) { benchEncode(b, Delta{}, nil) }
func BenchmarkCodecDeltaDecode(b *testing.B) { benchDecode(b, Delta{}, nil) }

// replyEntries is a fused reply on the top-k ledger workload: the union of
// two top-k pushes, about 1 500 of an 8 192-value shard.
func replyEntries() (vals []float64, idx []int32) {
	rng := rand.New(rand.NewSource(3))
	vals = make([]float64, 8192)
	for i := range vals {
		vals[i] = rng.NormFloat64()
		if rng.Intn(11) < 2 {
			idx = append(idx, int32(i))
		}
	}
	return vals, idx
}

func BenchmarkEncodeEntries(b *testing.B) {
	vals, idx := replyEntries()
	w := wire.NewWriter(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset()
		EncodeEntries(w, vals, idx)
	}
	b.ReportMetric(float64(len(idx)), "entries")
}

func BenchmarkDecodeDelta(b *testing.B) {
	vals, idx := replyEntries()
	w := wire.NewWriter(0)
	EncodeEntries(w, vals, idx)
	block := make([]float64, len(vals))
	var scratch []int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if scratch, err = DecodeDelta(w.Bytes(), block, scratch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(idx)), "entries")
}
