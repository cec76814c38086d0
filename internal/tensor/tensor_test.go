package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAxpyDotScale(t *testing.T) {
	y := Vec{1, 2, 3}
	x := Vec{4, 5, 6}
	Axpy(y, 2, x)
	want := Vec{9, 12, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	if got := Dot(x, x); got != 16+25+36 {
		t.Errorf("Dot = %v", got)
	}
	Scale(y, 0)
	if Norm2(y) != 0 {
		t.Errorf("Scale to zero failed: %v", y)
	}
}

func TestAxpyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Axpy(Vec{1}, 1, Vec{1, 2})
}

func TestQuickDotSymmetric(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%32) + 1
		a, b := NewVec(m), NewVec(m)
		RandNormal(a, 1, rng)
		RandNormal(b, 1, rng)
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNorm2CauchySchwarz(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%32) + 1
		a, b := NewVec(m), NewVec(m)
		RandNormal(a, 2, rng)
		RandNormal(b, 2, rng)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClipNorm(t *testing.T) {
	v := Vec{3, 4} // norm 5
	if ClipNorm(v, 10) {
		t.Error("should not clip below threshold")
	}
	if !ClipNorm(v, 1) {
		t.Error("should clip above threshold")
	}
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Errorf("clipped norm = %v, want 1", Norm2(v))
	}
	if ClipNorm(v, 0) {
		t.Error("maxNorm <= 0 must be a no-op")
	}
}

func TestHasNaN(t *testing.T) {
	if HasNaN(Vec{1, 2, 3}) {
		t.Error("false positive")
	}
	if !HasNaN(Vec{1, math.NaN()}) {
		t.Error("missed NaN")
	}
	if !HasNaN(Vec{math.Inf(1)}) {
		t.Error("missed Inf")
	}
}

func TestSoftmax(t *testing.T) {
	v := Vec{1, 2, 3}
	out := NewVec(3)
	Softmax(v, out)
	var sum float64
	for _, p := range out {
		if p <= 0 || p >= 1 {
			t.Errorf("softmax out of range: %v", out)
		}
		sum += p
	}
	if !almostEq(sum, 1, 1e-12) {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Errorf("softmax not monotone: %v", out)
	}
}

func TestSoftmaxStability(t *testing.T) {
	v := Vec{1000, 1001, 999}
	out := NewVec(3)
	Softmax(v, out)
	if HasNaN(out) {
		t.Fatalf("softmax overflowed: %v", out)
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(Vec{0, 0}); !almostEq(got, math.Log(2), 1e-12) {
		t.Errorf("LogSumExp = %v", got)
	}
	if got := LogSumExp(Vec{}); !math.IsInf(got, -1) {
		t.Errorf("empty LogSumExp = %v", got)
	}
}

func TestArgmaxRelu(t *testing.T) {
	v := Vec{-1, 2, -3}
	Relu(v, v)
	if v[0] != 0 || v[1] != 2 || v[2] != 0 {
		t.Errorf("Relu = %v", v)
	}
}

func TestMatOverPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatOver(2, 2, Vec{1, 2, 3})
}
