package model

import (
	"math/rand"
	"testing"

	"specsync/internal/data"
)

// benchGrad times Grad+Release on one fixed batch, the steady state of a
// worker's iteration.
func benchGrad(b *testing.B, m Model) {
	rng := rand.New(rand.NewSource(1))
	w := m.Init(rng)
	batch := m.SampleBatch(0, rng)
	m.Grad(w, batch).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(w, batch).Release()
	}
}

// BenchmarkMLPGrad has the CIFAR substitute's shape.
func BenchmarkMLPGrad(b *testing.B) {
	blobs, err := data.NewBlobs(data.BlobsConfig{Classes: 10, Dim: 64, N: 1000, EvalN: 10, Spread: 2, Noise: 0.6, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMLP(MLPConfig{Hidden: 96, BatchSize: 64, L2: 1e-4}, 10, 64, [][]data.Sample{blobs.Train}, blobs.Eval)
	if err != nil {
		b.Fatal(err)
	}
	benchGrad(b, m)
}

// BenchmarkLinRegGrad has the shape of the ledger's dense TCP workloads.
func BenchmarkLinRegGrad(b *testing.B) {
	m, err := NewLinReg(LinRegConfig{Dim: 16384, N: 16, EvalN: 2, Shards: 1, Noise: 0.1, BatchSize: 4, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	benchGrad(b, m)
}

// BenchmarkMFGrad has the MovieLens substitute's shape.
func BenchmarkMFGrad(b *testing.B) {
	r, err := data.NewRatings(data.RatingsConfig{Users: 1200, Items: 900, TrueRank: 10, N: 60000, EvalN: 10, Noise: 0.1, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMF(MFConfig{Rank: 20, BatchSize: 1000, L2: 0.02, InitScale: 0.15}, 1200, 900, [][]data.Rating{r.Train}, r.Eval)
	if err != nil {
		b.Fatal(err)
	}
	benchGrad(b, m)
}
