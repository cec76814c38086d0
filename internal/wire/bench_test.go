package wire

import (
	"testing"
)

func benchVec(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i) * 0.25
	}
	return vs
}

// blockLen is one shard's block on the dense ledger workload (64 KiB).
const blockLen = 8192

func BenchmarkFloat64sEncode(b *testing.B) {
	vs := benchVec(blockLen)
	w := NewWriter(blockLen*8 + 16)
	b.SetBytes(int64(len(vs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.Float64s(vs)
	}
}

func BenchmarkFloat64sDecode(b *testing.B) {
	vs := benchVec(blockLen)
	w := NewWriter(0)
	w.Float64s(vs)
	data := w.Bytes()
	var r Reader
	out := make([]float64, blockLen) // a recycled destination
	b.SetBytes(int64(len(vs) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if out = r.Float64sInto(out); len(out) != len(vs) {
			b.Fatal("bad decode")
		}
	}
}

func BenchmarkMarshalRoundtrip(b *testing.B) {
	reg := testRegistry()
	m := &testMsg{A: 7, B: "worker/3", V: benchVec(7210)} // CIFAR-sized block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := Marshal(m)
		if _, err := reg.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalPooled / BenchmarkMarshalUnpooled compare the pooled
// scratch writer Marshal now uses against allocating a fresh Writer per
// message (the pre-pool behavior). The pooled path should show one
// allocation per call (the returned copy) instead of two-plus buffer growth.
func BenchmarkMarshalPooled(b *testing.B) {
	m := &testMsg{A: 7, B: "worker/3", V: benchVec(7210)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data := Marshal(m); len(data) == 0 {
			b.Fatal("empty marshal")
		}
	}
}

func BenchmarkMarshalUnpooled(b *testing.B) {
	m := &testMsg{A: 7, B: "worker/3", V: benchVec(7210)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(256)
		AppendMessage(w, m)
		out := make([]byte, w.Len())
		copy(out, w.Bytes())
		if len(out) == 0 {
			b.Fatal("empty marshal")
		}
	}
}
