package model

import (
	"math"
	"math/rand"
	"testing"

	"specsync/internal/data"
	"specsync/internal/tensor"
)

// gradCheck compares the analytic gradient of mdl on one fixed batch against
// central finite differences at nProbe random coordinates.
func gradCheck(t *testing.T, mdl Model, seed int64, nProbe int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := mdl.Init(rng)
	b := mdl.SampleBatch(0, rng)

	u := mdl.Grad(w, b)
	dense := u.Dense
	if u.IsSparse() {
		dense = u.Sparse.ToDense(mdl.Dim())
	}

	const eps = 1e-6
	for p := 0; p < nProbe; p++ {
		i := rng.Intn(mdl.Dim())
		orig := w[i]
		w[i] = orig + eps
		lp := mdl.BatchLoss(w, b)
		w[i] = orig - eps
		lm := mdl.BatchLoss(w, b)
		w[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if diff := math.Abs(numeric - dense[i]); diff > tol*(1+math.Abs(numeric)) {
			t.Errorf("coord %d: analytic %.8g vs numeric %.8g (diff %.3g)", i, dense[i], numeric, diff)
		}
	}
}

func newTestSoftmax(t *testing.T) *Softmax {
	t.Helper()
	blobs, err := data.NewBlobs(data.BlobsConfig{
		Classes: 4, Dim: 6, N: 400, EvalN: 100, Spread: 2, Noise: 0.6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardSamples(blobs.Train, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSoftmax(SoftmaxConfig{BatchSize: 16, L2: 1e-4}, 4, 6, shards, blobs.Eval)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestMLP(t *testing.T) *MLP {
	t.Helper()
	blobs, err := data.NewBlobs(data.BlobsConfig{
		Classes: 3, Dim: 5, N: 300, EvalN: 90, Spread: 2, Noise: 0.6, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardSamples(blobs.Train, 3, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLP(MLPConfig{Hidden: 8, BatchSize: 16, L2: 1e-4}, 3, 5, shards, blobs.Eval)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestMF(t *testing.T) *MF {
	t.Helper()
	r, err := data.NewRatings(data.RatingsConfig{
		Users: 30, Items: 25, TrueRank: 3, N: 1500, EvalN: 300, Noise: 0.1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardRatings(r.Train, 3, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMF(MFConfig{Rank: 3, BatchSize: 32, L2: 0.01}, 30, 25, shards, r.Eval)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSoftmaxGradCheck(t *testing.T) { gradCheck(t, newTestSoftmax(t), 1, 40, 1e-4) }
func TestMLPGradCheck(t *testing.T)     { gradCheck(t, newTestMLP(t), 2, 40, 1e-4) }
func TestMFGradCheck(t *testing.T)      { gradCheck(t, newTestMF(t), 3, 40, 1e-4) }

func TestLinRegGradCheck(t *testing.T) {
	l, err := NewLinReg(LinRegConfig{Dim: 8, N: 200, EvalN: 50, Shards: 2, Noise: 0.1, BatchSize: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gradCheck(t, l, 4, 16, 1e-4)
}

// sgdTrain runs plain single-node SGD and returns initial and final eval loss.
func sgdTrain(t *testing.T, mdl Model, lr float64, steps int, seed int64) (first, last float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := mdl.Init(rng)
	first = mdl.EvalLoss(w)
	for i := 0; i < steps; i++ {
		shard := i % mdl.NumShards()
		u := mdl.Grad(w, mdl.SampleBatch(shard, rng))
		if u.IsSparse() {
			u.Sparse.AddTo(w, -lr)
		} else {
			tensor.Axpy(w, -lr, u.Dense)
		}
	}
	last = mdl.EvalLoss(w)
	if tensor.HasNaN(w) {
		t.Fatal("parameters diverged to NaN")
	}
	return first, last
}

func TestSoftmaxSGDConverges(t *testing.T) {
	first, last := sgdTrain(t, newTestSoftmax(t), 0.1, 800, 1)
	if last >= first*0.5 {
		t.Errorf("loss did not halve: %.4f -> %.4f", first, last)
	}
}

func TestMLPSGDConverges(t *testing.T) {
	first, last := sgdTrain(t, newTestMLP(t), 0.1, 1200, 1)
	if last >= first*0.5 {
		t.Errorf("loss did not halve: %.4f -> %.4f", first, last)
	}
}

func TestMFSGDConverges(t *testing.T) {
	first, last := sgdTrain(t, newTestMF(t), 0.05, 4000, 1)
	if last >= first*0.5 {
		t.Errorf("loss did not halve: %.4f -> %.4f", first, last)
	}
}

func TestLinRegSGDRecoverstruth(t *testing.T) {
	l, err := NewLinReg(LinRegConfig{Dim: 10, N: 1000, EvalN: 200, Shards: 2, Noise: 0.05, BatchSize: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	w := l.Init(rng)
	for i := 0; i < 2000; i++ {
		u := l.Grad(w, l.SampleBatch(i%2, rng))
		tensor.Axpy(w, -0.05, u.Dense)
	}
	if d := l.DistanceToTruth(w); d > 0.2 {
		t.Errorf("distance to truth %.4f, want < 0.2", d)
	}
}

func TestMFSparseGradientTouchesOnlyBatchRows(t *testing.T) {
	m := newTestMF(t)
	rng := rand.New(rand.NewSource(3))
	w := m.Init(rng)
	b := m.SampleBatch(0, rng)
	u := m.Grad(w, b)
	if !u.IsSparse() {
		t.Fatal("MF must produce sparse updates")
	}
	if err := u.Sparse.Validate(m.Dim()); err != nil {
		t.Fatalf("invalid sparse gradient: %v", err)
	}
	rb := b.(*batch[data.Rating])
	allowed := map[int32]bool{}
	for _, rt := range rb.items {
		for r := 0; r < m.rank; r++ {
			allowed[int32(m.userRow(rt.User)+r)] = true
			allowed[int32(m.itemRow(rt.Item)+r)] = true
		}
	}
	for _, ix := range u.Sparse.Idx {
		if !allowed[ix] {
			t.Fatalf("gradient touches index %d outside batch rows", ix)
		}
	}
	// The update must be no larger than the rows the batch touched.
	if u.Sparse.Len() > len(allowed) {
		t.Errorf("sparse gradient has %d entries, batch touches only %d", u.Sparse.Len(), len(allowed))
	}
}

func TestModelValidation(t *testing.T) {
	blobs, err := data.NewBlobs(data.BlobsConfig{Classes: 2, Dim: 2, N: 10, EvalN: 4, Spread: 2, Noise: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardSamples(blobs.Train, 2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSoftmax(SoftmaxConfig{BatchSize: 0}, 2, 2, shards, blobs.Eval); err == nil {
		t.Error("expected batch-size error")
	}
	if _, err := NewSoftmax(SoftmaxConfig{BatchSize: 4}, 1, 2, shards, blobs.Eval); err == nil {
		t.Error("expected class-count error")
	}
	if _, err := NewMLP(MLPConfig{Hidden: 0, BatchSize: 4}, 2, 2, shards, blobs.Eval); err == nil {
		t.Error("expected hidden-size error")
	}
	if _, err := NewMF(MFConfig{Rank: 0, BatchSize: 4}, 2, 2, nil, nil); err == nil {
		t.Error("expected rank error")
	}
	if _, err := NewLinReg(LinRegConfig{Dim: 0}); err == nil {
		t.Error("expected linreg dim error")
	}
}

func TestDimLayouts(t *testing.T) {
	s := newTestSoftmax(t)
	if s.Dim() != 4*(6+1) {
		t.Errorf("softmax dim = %d", s.Dim())
	}
	m := newTestMLP(t)
	if m.Dim() != 8*(5+1)+3*(8+1) {
		t.Errorf("mlp dim = %d", m.Dim())
	}
	f := newTestMF(t)
	if f.Dim() != (30+25)*3 {
		t.Errorf("mf dim = %d", f.Dim())
	}
}
