package model

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"specsync/internal/data"
)

// blockModels builds one model of each kind with a parameter vector of a few
// thousand entries, so an allocation proportional to it stands out. Called
// twice it returns twins: same data, same initial state, separate pools.
func blockModels(t *testing.T) map[string]Model {
	t.Helper()
	blobs, err := data.NewBlobs(data.BlobsConfig{Classes: 4, Dim: 1024, N: 64, EvalN: 8, Spread: 2, Noise: 0.6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := data.ShardSamples(blobs.Train, 2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratings, err := data.NewRatings(data.RatingsConfig{Users: 300, Items: 300, TrueRank: 3, N: 2000, EvalN: 50, Noise: 0.1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rated, err := data.ShardRatings(ratings.Train, 2, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	linreg, err1 := NewLinReg(LinRegConfig{Dim: 8192, N: 16, EvalN: 2, Shards: 2, Noise: 0.1, BatchSize: 4, Seed: 5})
	softmax, err2 := NewSoftmax(SoftmaxConfig{BatchSize: 8, L2: 1e-4}, 4, 1024, samples, blobs.Eval)
	mlp, err3 := NewMLP(MLPConfig{Hidden: 8, BatchSize: 8, L2: 1e-4}, 4, 1024, samples, blobs.Eval)
	mf, err4 := NewMF(MFConfig{Rank: 8, BatchSize: 32, L2: 0.01}, 300, 300, rated, ratings.Eval)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Model{"linreg": linreg, "softmax": softmax, "mlp": mlp, "mf": mf}
}

// TestReleasedStorageIsInvisible: a model whose every update is released
// computes bit-for-bit the gradients of a twin that never releases, batch
// after batch — a reused gradient is cleared before it is accumulated into and
// reused scratch is written before it is read, whatever was left in either.
func TestReleasedStorageIsInvisible(t *testing.T) {
	releasing, keeping := blockModels(t), blockModels(t)
	for name, a := range releasing {
		b := keeping[name]
		rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		w := a.Init(rand.New(rand.NewSource(4)))
		for step := 0; step < 6; step++ {
			ua := a.Grad(w, a.SampleBatch(step%2, rngA))
			ub := b.Grad(w, b.SampleBatch(step%2, rngB))
			da, db := ua.Dense, ub.Dense
			if ua.IsSparse() != ub.IsSparse() {
				t.Fatalf("%s: representations differ", name)
			}
			if ua.IsSparse() {
				da, db = ua.Sparse.ToDense(a.Dim()), ub.Sparse.ToDense(b.Dim())
				if len(ua.Sparse.Idx) != len(ub.Sparse.Idx) {
					t.Fatalf("%s step %d: %d entries, the twin has %d", name, step, len(ua.Sparse.Idx), len(ub.Sparse.Idx))
				}
			}
			for i := range da {
				if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
					t.Fatalf("%s step %d: gradient[%d] = %v on recycled storage, %v on fresh", name, step, i, da[i], db[i])
				}
			}
			ua.Release()
			scribble(a)
		}
	}
	Update{Dense: []float64{1}}.Release() // built by hand: nothing to hand back
}

// TestGradReleaseAllocatesNoBlock: with the update released, a dense gradient
// allocates nothing — its scratch is pooled with it — and a sparse one nothing
// the size of the parameter vector. Drawing the batch allocates nothing for any
// model: it fills the shard's storage.
func TestGradReleaseAllocatesNoBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pool once
	for name, m := range blockModels(t) {
		rng := rand.New(rand.NewSource(1))
		w := m.Init(rng)
		b := m.SampleBatch(0, rng)
		m.Grad(w, b).Release()
		if per := medianAlloc(func() { m.SampleBatch(0, rng) }); per != 0 {
			t.Errorf("%s: SampleBatch allocates %d B/op, want 0", name, per)
		}
		per := medianAlloc(func() { m.Grad(w, b).Release() })
		if _, sparse := m.(*MF); sparse && per >= 1<<10 {
			t.Errorf("%s (dim %d): Grad+Release allocates %d B/op, want < 1 KiB", name, m.Dim(), per)
		} else if !sparse && per != 0 {
			t.Errorf("%s (dim %d): Grad+Release allocates %d B/op, want 0", name, m.Dim(), per)
		}
	}
}

// medianAlloc returns the median bytes op allocates over 51 calls: the median,
// because sync.Pool may drop a Put (it does so at random under the race
// detector) and that one gradient then pays for a block.
func medianAlloc(op func()) uint64 {
	var costs []uint64
	for i := 0; i < 51; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		costs = append(costs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(costs)
	return costs[len(costs)/2]
}
