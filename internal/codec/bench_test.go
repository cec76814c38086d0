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
		r := wire.NewReader(payload)
		c.Decode(r, dst)
		if err := r.Err(); err != nil {
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
