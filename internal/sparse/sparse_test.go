package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specsync/internal/tensor"
)

func TestValidateCatchesBadVectors(t *testing.T) {
	bad := []Vec{
		{Idx: []int32{1}, Val: []float64{}},        // length mismatch
		{Idx: []int32{3, 2}, Val: []float64{1, 1}}, // unsorted
		{Idx: []int32{2, 2}, Val: []float64{1, 1}}, // duplicate
		{Idx: []int32{-1}, Val: []float64{1}},      // negative
		{Idx: []int32{99}, Val: []float64{1}},      // out of range
	}
	for i, v := range bad {
		if err := v.Validate(10); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSlice(t *testing.T) {
	v := Vec{Idx: []int32{1, 5, 9, 15}, Val: []float64{1, 5, 9, 15}}
	s := v.SliceInto(Vec{}, 5, 10)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Idx[0] != 0 || s.Idx[1] != 4 {
		t.Errorf("rebased Idx = %v", s.Idx)
	}
	if s.Val[0] != 5 || s.Val[1] != 9 {
		t.Errorf("Val = %v", s.Val)
	}
	if empty := v.SliceInto(Vec{}, 20, 30); empty.Len() != 0 {
		t.Errorf("out-of-range slice not empty: %v", empty)
	}
}

func TestQuickSliceRoundtrip(t *testing.T) {
	// Splitting a sparse vector into shard slices and re-assembling (with
	// offset) must reproduce the original dense form. This is exactly the
	// push-routing path in the parameter server.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const dim = 64
		scattered := tensor.NewVec(dim)
		for i := 0; i < rng.Intn(40); i++ {
			scattered[rng.Intn(dim)] += rng.NormFloat64()
		}
		v := FromDense(scattered)

		nshards := rng.Intn(4) + 1
		per := (dim + nshards - 1) / nshards
		dense := tensor.NewVec(dim)
		for s := 0; s < nshards; s++ {
			lo := int32(s * per)
			hi := lo + int32(per)
			if hi > dim {
				hi = dim
			}
			part := v.SliceInto(Vec{}, lo, hi)
			if err := part.Validate(int(hi - lo)); err != nil {
				return false
			}
			for i, ix := range part.Idx {
				dense[int32(ix)+lo] += part.Val[i]
			}
		}

		want := v.ToDense(dim)
		for i := range want {
			if dense[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFromDenseToDense(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) > 256 {
			raw = raw[:256]
		}
		dense := tensor.Vec(raw)
		v := FromDense(dense)
		if err := v.Validate(len(dense)); err != nil {
			return false
		}
		back := v.ToDense(len(dense))
		for i := range dense {
			// NaN round-trips as non-equal; skip those draws.
			if dense[i] != back[i] && dense[i] == dense[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddToAndScale(t *testing.T) {
	v := Vec{Idx: []int32{0, 3}, Val: []float64{2, 4}}
	dense := tensor.NewVec(5)
	v.AddTo(dense, 0.5)
	if dense[0] != 1 || dense[3] != 2 {
		t.Errorf("AddTo = %v", dense)
	}
	v.Scale(2)
	if v.Val[0] != 4 || v.Val[1] != 8 {
		t.Errorf("Scale = %v", v.Val)
	}
	if v.Norm2Sq() != 16+64 {
		t.Errorf("Norm2Sq = %v", v.Norm2Sq())
	}
}

func TestClone(t *testing.T) {
	v := Vec{Idx: []int32{1}, Val: []float64{1}}
	c := v.Clone()
	c.Val[0] = 99
	c.Idx[0] = 5
	if v.Val[0] != 1 || v.Idx[0] != 1 {
		t.Error("Clone aliases original")
	}
}
