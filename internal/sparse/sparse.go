// Package sparse provides the sparse-vector representation used for matrix
// factorization pushes and pulls. An MF gradient only touches the rows of the
// user/item factors that appear in the minibatch, so shipping a dense vector
// of millions of zeros would dominate transfer; sparse push/pull is what
// makes the MF workload's communication profile (paper Fig. 12a) realistic.
package sparse

import (
	"fmt"
	"sort"

	"specsync/internal/tensor"
)

// Vec is a sparse vector: parallel slices of strictly increasing indices and
// their values. The zero value is an empty vector.
type Vec struct {
	Idx []int32
	Val []float64
}

// Len returns the number of stored (non-zero) entries.
func (v Vec) Len() int { return len(v.Idx) }

// Validate checks the representation invariants: equal-length slices and
// strictly increasing indices.
func (v Vec) Validate(dim int) error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("sparse: %d indices but %d values", len(v.Idx), len(v.Val))
	}
	for i, ix := range v.Idx {
		if ix < 0 || int(ix) >= dim {
			return fmt.Errorf("sparse: index %d out of range [0,%d)", ix, dim)
		}
		if i > 0 && v.Idx[i-1] >= ix {
			return fmt.Errorf("sparse: indices not strictly increasing at %d", i)
		}
	}
	return nil
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := Vec{Idx: make([]int32, len(v.Idx)), Val: make([]float64, len(v.Val))}
	copy(out.Idx, v.Idx)
	copy(out.Val, v.Val)
	return out
}

// AddTo accumulates dense += a*v.
func (v Vec) AddTo(dense tensor.Vec, a float64) {
	for i, ix := range v.Idx {
		dense[ix] += a * v.Val[i]
	}
}

// Norm2Sq returns the squared Euclidean norm of v.
func (v Vec) Norm2Sq() float64 {
	var s float64
	for _, x := range v.Val {
		s += x * x
	}
	return s
}

// Scale multiplies every stored value by a in place.
func (v *Vec) Scale(a float64) {
	for i := range v.Val {
		v.Val[i] *= a
	}
}

// SliceInto returns the sub-vector of v whose indices fall in [lo, hi), with
// indices rebased to lo, in dst's storage (grown as needed). Workers use it to
// route one sparse push to the shard that owns each index range, into scratch
// they keep per shard.
func (v Vec) SliceInto(dst Vec, lo, hi int32) Vec {
	start := sort.Search(len(v.Idx), func(i int) bool { return v.Idx[i] >= lo })
	end := sort.Search(len(v.Idx), func(i int) bool { return v.Idx[i] >= hi })
	dst.Idx, dst.Val = dst.Idx[:0], append(dst.Val[:0], v.Val[start:end]...)
	for _, ix := range v.Idx[start:end] {
		dst.Idx = append(dst.Idx, ix-lo)
	}
	return dst
}

// FromDense extracts the non-zero entries of a dense vector. Mostly a test
// helper; production gradients are built sparsely from the start.
func FromDense(dense tensor.Vec) Vec {
	var out Vec
	for i, x := range dense {
		if x != 0 {
			out.Idx = append(out.Idx, int32(i))
			out.Val = append(out.Val, x)
		}
	}
	return out
}

// ToDense materializes v as a dense vector of length dim.
func (v Vec) ToDense(dim int) tensor.Vec {
	out := tensor.NewVec(dim)
	v.AddTo(out, 1)
	return out
}
