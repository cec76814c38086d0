package model

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"specsync/internal/data"
	"specsync/internal/sparse"
	"specsync/internal/tensor"
)

// The oracles below define every model's arithmetic one sample and one float
// at a time: a single accumulator per inner product, one Axpy per sample, one
// map update per sparse contribution. The models block and sort for speed and
// must return the same bits.

func oracleSoftmaxLogits(s *Softmax, w tensor.Vec, x []float64, out tensor.Vec) {
	stride := s.dim + 1
	for k := 0; k < s.classes; k++ {
		row := w[k*stride : (k+1)*stride]
		var z float64
		for d, xv := range x {
			z += row[d] * xv
		}
		out[k] = z + row[s.dim] // bias
	}
}

func oracleSoftmaxGrad(s *Softmax, w tensor.Vec, samples []data.Sample) tensor.Vec {
	g := tensor.NewVec(s.Dim())
	probs := tensor.NewVec(s.classes)
	stride := s.dim + 1
	inv := 1.0 / float64(len(samples))
	for _, smp := range samples {
		oracleSoftmaxLogits(s, w, smp.X, probs)
		tensor.Softmax(probs, probs)
		probs[smp.Y] -= 1 // p - onehot
		for k := 0; k < s.classes; k++ {
			c := probs[k] * inv
			if c == 0 {
				continue
			}
			row := g[k*stride : (k+1)*stride]
			for d, xv := range smp.X {
				row[d] += c * xv
			}
			row[s.dim] += c
		}
	}
	if s.l2 > 0 {
		tensor.Axpy(g, s.l2, w)
	}
	return g
}

func oracleSoftmaxLoss(s *Softmax, w tensor.Vec, samples []data.Sample) float64 {
	logits := tensor.NewVec(s.classes)
	var total float64
	for _, smp := range samples {
		oracleSoftmaxLogits(s, w, smp.X, logits)
		total += tensor.LogSumExp(logits) - logits[smp.Y]
	}
	loss := total / float64(len(samples))
	if s.l2 > 0 {
		loss += 0.5 * s.l2 * tensor.Dot(w, w)
	}
	return loss
}

func oracleMLPForward(m *MLP, w tensor.Vec, x []float64, hPre, hAct, logits tensor.Vec) {
	w1 := m.w1(w)
	for h := 0; h < m.hidden; h++ {
		row := w1.Row(h)
		var z float64
		for d, xv := range x {
			z += row[d] * xv
		}
		hPre[h] = z + row[m.dim]
	}
	tensor.Relu(hPre, hAct)
	w2 := m.w2(w)
	for k := 0; k < m.classes; k++ {
		row := w2.Row(k)
		var z float64
		for h := 0; h < m.hidden; h++ {
			z += row[h] * hAct[h]
		}
		logits[k] = z + row[m.hidden]
	}
}

func oracleMLPGrad(m *MLP, w tensor.Vec, samples []data.Sample) tensor.Vec {
	g := tensor.NewVec(m.Dim())
	g1 := m.w1(g)
	g2 := m.w2(g)
	w2 := m.w2(w)

	hPre := tensor.NewVec(m.hidden)
	hAct := tensor.NewVec(m.hidden)
	logits := tensor.NewVec(m.classes)
	dHidden := tensor.NewVec(m.hidden)
	inv := 1.0 / float64(len(samples))

	for _, smp := range samples {
		oracleMLPForward(m, w, smp.X, hPre, hAct, logits)
		tensor.Softmax(logits, logits)
		logits[smp.Y] -= 1 // dL/dlogits = p - onehot

		// Output layer gradient and hidden backprop.
		dHidden.Zero()
		for k := 0; k < m.classes; k++ {
			dk := logits[k] * inv
			if dk == 0 {
				continue
			}
			row := g2.Row(k)
			for h := 0; h < m.hidden; h++ {
				row[h] += dk * hAct[h]
			}
			row[m.hidden] += dk
			tensor.Axpy(dHidden, dk, w2.Row(k)[:m.hidden])
		}
		// ReLU gate.
		for h := 0; h < m.hidden; h++ {
			if hPre[h] <= 0 {
				dHidden[h] = 0
			}
		}
		// Input layer gradient.
		for h := 0; h < m.hidden; h++ {
			dh := dHidden[h]
			if dh == 0 {
				continue
			}
			row := g1.Row(h)
			for d, xv := range smp.X {
				row[d] += dh * xv
			}
			row[m.dim] += dh
		}
	}
	if m.l2 > 0 {
		tensor.Axpy(g, m.l2, w)
	}
	return g
}

func oracleMLPLoss(m *MLP, w tensor.Vec, samples []data.Sample) float64 {
	hPre := tensor.NewVec(m.hidden)
	hAct := tensor.NewVec(m.hidden)
	logits := tensor.NewVec(m.classes)
	var total float64
	for _, smp := range samples {
		oracleMLPForward(m, w, smp.X, hPre, hAct, logits)
		total += tensor.LogSumExp(logits) - logits[smp.Y]
	}
	loss := total / float64(len(samples))
	if m.l2 > 0 {
		loss += 0.5 * m.l2 * tensor.Dot(w, w)
	}
	return loss
}

func oracleLinRegGrad(l *LinReg, w tensor.Vec, samples []regSample) tensor.Vec {
	g := tensor.NewVec(l.dim)
	inv := 1.0 / float64(len(samples))
	for _, s := range samples {
		e := tensor.Dot(w, s.x) - s.y
		tensor.Axpy(g, 2*e*inv, s.x)
	}
	return g
}

func oracleLinRegLoss(w tensor.Vec, samples []regSample) float64 {
	var total float64
	for _, s := range samples {
		e := tensor.Dot(w, s.x) - s.y
		total += e * e
	}
	return total / float64(len(samples))
}

// oracleBuilder accumulates scattered (index, value) contributions in a map
// and produces the canonical sparse vector, duplicates merged by summation in
// the order they were added.
type oracleBuilder struct {
	vals map[int32]float64
}

func (b *oracleBuilder) AddSpan(base int32, values []float64) {
	for i, v := range values {
		b.vals[base+int32(i)] += v
	}
}

func (b *oracleBuilder) Build() sparse.Vec {
	var idx []int32
	var val []float64
	for ix := range b.vals {
		idx = append(idx, ix)
	}
	slices.Sort(idx)
	for _, ix := range idx {
		val = append(val, b.vals[ix])
	}
	return sparse.Vec{Idx: idx, Val: val}
}

func oracleMFGrad(m *MF, w tensor.Vec, ratings []data.Rating) sparse.Vec {
	builder, rowBuf := &oracleBuilder{vals: make(map[int32]float64)}, make([]float64, m.rank)
	inv := 1.0 / float64(len(ratings))
	for _, rt := range ratings {
		ub := m.userRow(rt.User)
		ib := m.itemRow(rt.Item)
		pu := w[ub : ub+m.rank]
		qi := w[ib : ib+m.rank]
		e := tensor.Dot(pu, qi) - rt.Value

		for r := 0; r < m.rank; r++ {
			rowBuf[r] = (2*e*qi[r] + 2*m.l2*pu[r]) * inv
		}
		builder.AddSpan(int32(ub), rowBuf)
		for r := 0; r < m.rank; r++ {
			rowBuf[r] = (2*e*pu[r] + 2*m.l2*qi[r]) * inv
		}
		builder.AddSpan(int32(ib), rowBuf)
	}
	return builder.Build()
}

// scribble overwrites whatever storage m's pool holds — a released gradient
// and the scratch that rode with it — so a Grad that read any of it before
// writing it would show.
func scribble(m Model) {
	var pool *densePool
	switch m := m.(type) {
	case *LinReg:
		pool = &m.grads
	case *Softmax:
		pool = &m.grads
	case *MLP:
		pool = &m.grads
	case *MF:
		if g, _ := m.grads.Get().(*mfGrad); g != nil {
			tensor.Vec(g.errs[:cap(g.errs)]).Fill(math.NaN())
			tensor.Vec(g.vec.Val[:cap(g.vec.Val)]).Fill(math.NaN())
			idx, keys := g.vec.Idx[:cap(g.vec.Idx)], g.keys[:cap(g.keys)]
			for i := range idx {
				idx[i] = -1
			}
			for i := range keys {
				keys[i] = math.MaxUint64
			}
			m.grads.Put(g)
		}
		return
	}
	if g, _ := pool.pool.Get().(*denseGrad); g != nil {
		g.vec.Fill(math.NaN())
		g.scratch.Fill(math.NaN())
		pool.pool.Put(g)
	}
}

func sameBits(t *testing.T, what string, got, want tensor.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, the oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), the oracle has %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// oracleData is a classification set whose eval split is not a multiple of
// the block width, so evaluation ends on a tail.
func oracleData(t *testing.T) (shards [][]data.Sample, eval []data.Sample) {
	t.Helper()
	blobs, err := data.NewBlobs(data.BlobsConfig{Classes: 5, Dim: 13, N: 120, EvalN: 90 + 1, Spread: 2, Noise: 0.6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	shards, err = data.ShardSamples(blobs.Train, 2, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	return shards, blobs.Eval
}

// TestDenseModelsEqualOracle: Grad, BatchLoss and EvalLoss of the three dense
// models are the oracle's bit for bit, for every batch size
// around the block width, on storage that was released and scribbled over
// between calls.
func TestDenseModelsEqualOracle(t *testing.T) {
	shards, eval := oracleData(t)
	softmax, err1 := NewSoftmax(SoftmaxConfig{BatchSize: 9, L2: 1e-4}, 5, 13, shards, eval)
	mlp, err2 := NewMLP(MLPConfig{Hidden: 11, BatchSize: 9, L2: 1e-4}, 5, 13, shards, eval)
	linreg, err3 := NewLinReg(LinRegConfig{Dim: 37, N: 64, EvalN: 50 + 1, Shards: 2, Noise: 0.1, BatchSize: 9, Seed: 5})
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(eval)%block == 0 || len(linreg.eval)%block == 0 {
		t.Fatalf("eval sets of %d and %d samples end on a full block", len(eval), len(linreg.eval))
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 3; round++ {
		for n := 1; n <= 9; n++ {
			samples := softmax.SampleBatch(n%2, rng).(*batch[data.Sample]).items[:n]
			sb := &batch[data.Sample]{items: samples}

			w := softmax.Init(rng)
			tensor.Scale(w, 30) // logits far enough apart that some probabilities round to 0
			u := softmax.Grad(w, sb)
			sameBits(t, "softmax Grad", u.Dense, oracleSoftmaxGrad(softmax, w, samples))
			u.Release()
			scribble(softmax)
			sameBits(t, "softmax BatchLoss", tensor.Vec{softmax.BatchLoss(w, sb)}, tensor.Vec{oracleSoftmaxLoss(softmax, w, samples)})
			sameBits(t, "softmax EvalLoss", tensor.Vec{softmax.EvalLoss(w)}, tensor.Vec{oracleSoftmaxLoss(softmax, w, eval)})

			w = mlp.Init(rng)
			u = mlp.Grad(w, sb)
			sameBits(t, "mlp Grad", u.Dense, oracleMLPGrad(mlp, w, samples))
			u.Release()
			scribble(mlp)
			sameBits(t, "mlp BatchLoss", tensor.Vec{mlp.BatchLoss(w, sb)}, tensor.Vec{oracleMLPLoss(mlp, w, samples)})
			sameBits(t, "mlp EvalLoss", tensor.Vec{mlp.EvalLoss(w)}, tensor.Vec{oracleMLPLoss(mlp, w, eval)})

			regs := linreg.SampleBatch(n%2, rng).(*batch[regSample]).items[:n]
			rb := &batch[regSample]{items: regs}
			w = linreg.Init(rng)
			u = linreg.Grad(w, rb)
			sameBits(t, "linreg Grad", u.Dense, oracleLinRegGrad(linreg, w, regs))
			u.Release()
			scribble(linreg)
			sameBits(t, "linreg BatchLoss", tensor.Vec{linreg.BatchLoss(w, rb)}, tensor.Vec{oracleLinRegLoss(w, regs)})
			sameBits(t, "linreg EvalLoss", tensor.Vec{linreg.EvalLoss(w)}, tensor.Vec{oracleLinRegLoss(w, linreg.eval)})
		}
	}
}

// TestMFGradEqualsOracle: sorting (row, position) keys and summing each row in
// batch order gives the map-and-sort gradient bit for bit, duplicate users and
// items included.
func TestMFGradEqualsOracle(t *testing.T) {
	// Few users and items, so nearly every row of a batch repeats.
	r, err := data.NewRatings(data.RatingsConfig{Users: 9, Items: 7, TrueRank: 3, N: 600, EvalN: 20, Noise: 0.1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardRatings(r.Train, 2, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMF(MFConfig{Rank: 5, BatchSize: 40, L2: 0.01}, 9, 7, shards, r.Eval)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 50; round++ {
		w := m.Init(rng)
		ratings := m.SampleBatch(round%2, rng).(*batch[data.Rating]).items[:1+rng.Intn(40)]
		u := m.Grad(w, &batch[data.Rating]{items: ratings})
		want := oracleMFGrad(m, w, ratings)
		if !slices.Equal(u.Sparse.Idx, want.Idx) {
			t.Fatalf("round %d: indices %v, the oracle has %v", round, u.Sparse.Idx, want.Idx)
		}
		sameBits(t, "mf Grad", u.Sparse.Val, want.Val)
		u.Release()
		scribble(m)
	}
}
