// Package tensor provides the small dense linear-algebra kernels used by the
// hand-rolled ML models (softmax regression, MLP, matrix factorization) and
// by the parameter-server update path. Everything operates on flat []float64
// buffers so parameter vectors can be sharded and shipped over the wire
// without conversion.
//
// Per output element, the order of floating-point additions is the
// specification: Dot sums in index order from zero into one accumulator, Axpy
// adds one product to each element. The blocked kernels (Dot4, Axpy4) only
// interleave independent elements, so they return what the one-at-a-time calls
// return bit for bit, and the golden digests and the simulator's twin runs
// do not depend on which of the two a model took.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense vector of float64 values.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0 in place.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c in place.
func (v Vec) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Axpy computes y += a*x element-wise. It panics if lengths differ, which
// indicates a sharding bug rather than a recoverable condition.
func Axpy(y Vec, a float64, x Vec) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d != %d", len(y), len(x)))
	}
	for i, xv := range x {
		y[i] += a * xv
	}
}

// Add computes y += x element-wise.
func Add(y, x Vec) { Axpy(y, 1, x) }

// Sub computes y -= x element-wise.
func Sub(y, x Vec) { Axpy(y, -1, x) }

// Scale multiplies every element of v by a in place.
func Scale(v Vec, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Dot4 returns Dot(a, b0) ... Dot(a, b3) from one pass over a: four
// independent accumulators, so a multiply-add does not wait for the one before
// it as it does in Dot. Four columns against one row is the widest block the
// compiler keeps in registers.
func Dot4(a, b0, b1, b2, b3 Vec) (s0, s1, s2, s3 float64) {
	n := len(a)
	if len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("tensor: dot4 length mismatch %d != %d/%d/%d/%d", n, len(b0), len(b1), len(b2), len(b3)))
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n] // one bounds check each, none in the loop
	for i, av := range a {
		s0 += av * b0[i]
		s1 += av * b1[i]
		s2 += av * b2[i]
		s3 += av * b3[i]
	}
	return
}

// Axpy4 leaves in y what Axpy(y, a0, x0) ... Axpy(y, a3, x3) would, in one
// pass over y: y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i].
func Axpy4(y Vec, a0 float64, x0 Vec, a1 float64, x1 Vec, a2 float64, x2 Vec, a3 float64, x3 Vec) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("tensor: axpy4 length mismatch %d != %d/%d/%d/%d", n, len(x0), len(x1), len(x2), len(x3)))
	}
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i, yv := range y {
		yv += a0 * x0[i]
		yv += a1 * x1[i]
		yv += a2 * x2[i]
		yv += a3 * x3[i]
		y[i] = yv
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v Vec) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// RandNormal fills v with independent N(0, sigma^2) draws from rng.
func RandNormal(v Vec, sigma float64, rng *rand.Rand) {
	for i := range v {
		v[i] = rng.NormFloat64() * sigma
	}
}

// ClipNorm rescales v in place so that its Euclidean norm does not exceed
// maxNorm. It returns true if clipping occurred. Gradient clipping keeps
// asynchronous training stable when stale gradients spike.
func ClipNorm(v Vec, maxNorm float64) bool {
	if maxNorm <= 0 {
		return false
	}
	n := Norm2(v)
	if n <= maxNorm {
		return false
	}
	Scale(v, maxNorm/n)
	return true
}

// HasNaN reports whether v contains a NaN or infinity, which indicates a
// diverged optimization.
func HasNaN(v Vec) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
