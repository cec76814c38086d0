package optimizer

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"specsync/internal/sparse"
	"specsync/internal/tensor"
)

func TestConstLR(t *testing.T) {
	if Const(0.5).LR(0) != 0.5 || Const(0.5).LR(1e6) != 0.5 {
		t.Error("Const schedule must be constant")
	}
}

func TestStepSchedule(t *testing.T) {
	s, err := NewStep(1.0, 0.1, []int64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		step int64
		want float64
	}{
		{0, 1.0}, {99, 1.0}, {100, 0.1}, {199, 0.1}, {200, 0.01}, {5000, 0.01},
	}
	for _, c := range cases {
		if got := s.LR(c.step); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LR(%d) = %v, want %v", c.step, got, c.want)
		}
	}
}

func TestStepValidation(t *testing.T) {
	if _, err := NewStep(0, 0.1, nil); err == nil {
		t.Error("expected error for base=0")
	}
	if _, err := NewStep(1, 1.5, nil); err == nil {
		t.Error("expected error for factor>1")
	}
	if _, err := NewStep(1, 0.1, []int64{200, 100}); err == nil {
		t.Error("expected error for unsorted boundaries")
	}
}

func TestInvSqrtMonotone(t *testing.T) {
	s := &InvSqrt{Base: 1, Scale: 10}
	prev := math.Inf(1)
	for step := int64(0); step < 1000; step += 50 {
		lr := s.LR(step)
		if lr > prev {
			t.Fatalf("InvSqrt not monotone at %d", step)
		}
		prev = lr
	}
	if got := s.LR(0); got != 1 {
		t.Errorf("LR(0) = %v", got)
	}
}

func TestSGDDenseStep(t *testing.T) {
	o, err := NewSGD(SGDConfig{Schedule: Const(0.5)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.Vec{1, 1, 1}
	o.ApplyDense(w, tensor.Vec{2, 0, -2})
	want := tensor.Vec{0, 1, 2}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	if o.Step() != 1 {
		t.Errorf("Step = %d", o.Step())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	o, err := NewSGD(SGDConfig{Schedule: Const(1), Momentum: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.Vec{0}
	g := tensor.Vec{1}
	o.ApplyDense(w, g) // v=1, w=-1
	o.ApplyDense(w, g) // v=1.5, w=-2.5
	if w[0] != -2.5 {
		t.Errorf("w = %v, want -2.5", w[0])
	}
}

func TestSGDClipDoesNotMutateCallerGradient(t *testing.T) {
	o, err := NewSGD(SGDConfig{Schedule: Const(1), Clip: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.Vec{3, 4} // norm 5
	w := tensor.Vec{0, 0}
	o.ApplyDense(w, g)
	if g[0] != 3 || g[1] != 4 {
		t.Error("clip mutated caller's gradient")
	}
	if n := tensor.Norm2(w); math.Abs(n-1) > 1e-12 {
		t.Errorf("clipped update norm = %v, want 1", n)
	}
}

func TestSGDSparseMatchesDense(t *testing.T) {
	mk := func() (*SGD, tensor.Vec) {
		o, err := NewSGD(SGDConfig{Schedule: Const(0.1)}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return o, tensor.Vec{1, 2, 3, 4, 5, 6}
	}
	dense := tensor.Vec{0, 1, 0, -2, 0, 0}
	sp := sparse.FromDense(dense)

	o1, w1 := mk()
	o1.ApplyDense(w1, dense)
	o2, w2 := mk()
	o2.ApplySparse(w2, sp)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Errorf("w[%d]: dense %v vs sparse %v", i, w1[i], w2[i])
		}
	}
	if o1.Step() != o2.Step() {
		t.Error("step counters diverge")
	}
}

func TestSGDSparseClip(t *testing.T) {
	o, err := NewSGD(SGDConfig{Schedule: Const(1), Clip: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Vec{Idx: []int32{0, 2}, Val: []float64{3, 4}}
	w := tensor.NewVec(4)
	o.ApplySparse(w, g)
	if g.Val[0] != 3 {
		t.Error("sparse clip mutated caller's gradient")
	}
	if n := tensor.Norm2(w); math.Abs(n-1) > 1e-12 {
		t.Errorf("norm = %v", n)
	}
}

// straddle searches for a sparse gradient whose norm, taken as the clip,
// fails ApplyDense's clip test (√Σv² > clip) but passes a squared-norm test
// (Σv² > clip²): the rounded square of the rounded root falls below Σv².
func straddle(t *testing.T) sparse.Vec {
	rng := rand.New(rand.NewSource(1))
	for try := 0; try < 1000; try++ {
		g := sparse.Vec{Idx: []int32{1, 4, 5, 9}, Val: make([]float64, 4)}
		for i := range g.Val {
			g.Val[i] = rng.NormFloat64()
		}
		if n2 := g.Norm2Sq(); n2 > math.Sqrt(n2)*math.Sqrt(n2) {
			return g
		}
	}
	t.Fatal("no straddling gradient found")
	return sparse.Vec{}
}

// TestSparseMatchesDenseExpansion: a sparse gradient and its dense expansion
// leave bit-identical parameters and velocity, signed zeros included, with
// the norm below the clip, at it (the straddling case), one ulp above it and
// far above it, with and without momentum.
func TestSparseMatchesDenseExpansion(t *testing.T) {
	g := straddle(t)
	norm := math.Sqrt(g.Norm2Sq())
	negZero := math.Copysign(0, -1)
	g.Idx, g.Val = append(g.Idx, 11), append(g.Val, negZero)
	const dim = 12
	dense := tensor.NewVec(dim)
	for j, ix := range g.Idx {
		dense[ix] = g.Val[j]
	}
	bits := func(v tensor.Vec) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, clip := range []float64{2 * norm, norm, math.Nextafter(norm, 0), norm / 2} {
		for _, momentum := range []float64{0, 0.9} {
			mk := func() (*SGD, tensor.Vec) {
				o, err := NewSGD(SGDConfig{Schedule: Const(0.1), Momentum: momentum, Clip: clip}, dim)
				if err != nil {
					t.Fatal(err)
				}
				w := tensor.NewVec(dim)
				for i := range w {
					w[i] = float64(i%3) - 1
					if i%4 == 0 {
						w[i] = negZero
					}
				}
				for i := range o.velocity {
					o.velocity[i] = negZero
				}
				return o, w
			}
			od, wd := mk()
			os, ws := mk()
			for step := 0; step < 3; step++ {
				od.ApplyDense(wd, dense)
				os.ApplySparse(ws, g)
				if !reflect.DeepEqual(bits(wd), bits(ws)) || !reflect.DeepEqual(bits(od.velocity), bits(os.velocity)) {
					t.Fatalf("clip %v (norm %v) momentum %v step %d: dense w %v v %v, sparse w %v v %v",
						clip, norm, momentum, step, wd, od.velocity, ws, os.velocity)
				}
			}
		}
	}
}

// applyDensePasses is ApplyDense as separate passes over the block: clip a
// copy, scale the velocity, add the gradient, then step the parameters. Each
// pass rounds every operation on its own, as the float64 conversions make
// explicit.
func applyDensePasses(w, velocity, g tensor.Vec, lr, momentum, clip float64) {
	if clip > 0 {
		if n := tensor.Norm2(g); n > clip {
			g = g.Clone()
			for i := range g {
				g[i] *= clip / n
			}
		}
	}
	if velocity != nil {
		for i := range velocity {
			velocity[i] *= momentum
		}
		for i := range velocity {
			velocity[i] += g[i]
		}
		g = velocity
	}
	for i := range w {
		w[i] += float64(-lr * g[i])
	}
}

// TestApplyDenseMatchesSeparatePasses: the one-pass ApplyDense leaves
// parameters and velocity bit-identical to the separate passes, signed zeros
// included, with the clip off, far above the norm, at a norm that rounds to
// the clip (no clipping), one ulp below it and far below it, with and without
// momentum.
func TestApplyDenseMatchesSeparatePasses(t *testing.T) {
	sp := straddle(t)
	const dim = 12
	g := tensor.NewVec(dim)
	for j, ix := range sp.Idx {
		g[ix] = sp.Val[j]
	}
	negZero := math.Copysign(0, -1)
	g[0], g[11] = negZero, 1e-310
	norm := tensor.Norm2(g)
	bits := func(v tensor.Vec) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, clip := range []float64{0, 2 * norm, norm, math.Nextafter(norm, 0), norm / 3} {
		for _, momentum := range []float64{0, 0.9} {
			o, err := NewSGD(SGDConfig{Schedule: Const(0.1), Momentum: momentum, Clip: clip}, dim)
			if err != nil {
				t.Fatal(err)
			}
			w, wantW := tensor.NewVec(dim), tensor.NewVec(dim)
			for i := range w {
				w[i] = float64(i%3) - 1
				if i%4 == 0 {
					w[i] = negZero
				}
			}
			copy(wantW, w)
			var wantV tensor.Vec
			if momentum > 0 {
				for i := range o.velocity {
					o.velocity[i] = negZero
				}
				wantV = o.velocity.Clone()
			}
			in := g.Clone()
			for step := 0; step < 3; step++ {
				o.ApplyDense(w, g)
				applyDensePasses(wantW, wantV, in, 0.1, momentum, clip)
				if !reflect.DeepEqual(bits(w), bits(wantW)) || !reflect.DeepEqual(bits(o.velocity), bits(wantV)) {
					t.Fatalf("clip %v (norm %v) momentum %v step %d: w %v v %v, separate passes give w %v v %v",
						clip, norm, momentum, step, w, o.velocity, wantW, wantV)
				}
			}
			if !reflect.DeepEqual(bits(g), bits(in)) {
				t.Fatalf("clip %v momentum %v: the gradient was mutated", clip, momentum)
			}
		}
	}
}

func TestSGDValidation(t *testing.T) {
	if _, err := NewSGD(SGDConfig{}, 3); err == nil {
		t.Error("expected error for nil schedule")
	}
	if _, err := NewSGD(SGDConfig{Schedule: Const(1), Momentum: 1}, 3); err == nil {
		t.Error("expected error for momentum=1")
	}
	if _, err := NewSGD(SGDConfig{Schedule: Const(1)}, 0); err == nil {
		t.Error("expected error for dim=0")
	}
}

func TestSetStepKeysSchedule(t *testing.T) {
	sched, err := NewStep(1, 0.1, []int64{10})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSGD(SGDConfig{Schedule: sched}, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.SetStep(50)
	if o.CurrentLR() != 0.1 {
		t.Errorf("CurrentLR = %v after SetStep(50)", o.CurrentLR())
	}
}

func TestQuickSGDReducesQuadratic(t *testing.T) {
	// For f(w) = |w|^2/2, gradient descent with lr < 2 must not increase f.
	f := func(seed int64) bool {
		o, err := NewSGD(SGDConfig{Schedule: Const(0.3)}, 4)
		if err != nil {
			return false
		}
		w := tensor.Vec{float64(seed%7) - 3, 1, -2, 0.5}
		before := tensor.Dot(w, w)
		for i := 0; i < 20; i++ {
			o.ApplyDense(w, w.Clone())
		}
		return tensor.Dot(w, w) <= before+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// clippedBlock is a 64 KiB gradient whose norm is far over the clip.
func clippedBlock() tensor.Vec {
	g := tensor.NewVec(8192)
	for i := range g {
		g[i] = float64(i%17) - 8
	}
	return g
}

// TestClippedApplyAllocatesNothing: every push on the dense ledger workload
// is clipped. The dense apply scales each value as it applies it, the sparse
// one scales a copy in scratch the optimizer keeps. Neither may touch the
// caller's buffer (a replicated primary forwards it after the apply), and
// both give bit-for-bit what scaling a clone gave.
func TestClippedApplyAllocatesNothing(t *testing.T) {
	o, err := NewSGD(SGDConfig{Schedule: Const(0.01), Clip: 50}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	g, w := clippedBlock(), tensor.NewVec(8192)
	o.ApplyDense(w, g)
	if allocs := testing.AllocsPerRun(50, func() { o.ApplyDense(w, g) }); allocs != 0 {
		t.Errorf("clipped ApplyDense: %.1f allocs/op, want 0", allocs)
	}
	sp := sparse.FromDense(g)
	if allocs := testing.AllocsPerRun(50, func() { o.ApplySparse(w, sp) }); allocs != 0 {
		t.Errorf("clipped ApplySparse: %.1f allocs/op, want 0", allocs)
	}

	// Against scaling a clone, from the same starting point.
	want := clippedBlock()
	scaled := want.Clone()
	tensor.Scale(scaled, 50/tensor.Norm2(want))
	wantW, gotW := tensor.NewVec(8192), tensor.NewVec(8192)
	tensor.Axpy(wantW, -0.01, scaled)
	o.ApplyDense(gotW, g)
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("the caller's gradient was mutated at %d", i)
		}
		if math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("param %d = %v, scaling a clone gives %v", i, gotW[i], wantW[i])
		}
	}
	if spWant := sparse.FromDense(want); !reflect.DeepEqual(sp, spWant) {
		t.Error("the caller's sparse gradient was mutated")
	}
}

func BenchmarkApplyDenseClipped(b *testing.B) {
	o, err := NewSGD(SGDConfig{Schedule: Const(0.01), Clip: 50}, 8192)
	if err != nil {
		b.Fatal(err)
	}
	g, w := clippedBlock(), tensor.NewVec(8192)
	o.ApplyDense(w, g)
	b.SetBytes(8 * 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ApplyDense(w, g)
	}
}
