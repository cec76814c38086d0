package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"specsync/internal/sparse"
)

// wrapIndexPayload is a 4-value sparse block whose single index delta is
// 2^64-1: added as an int it wrapped the cursor to -1, passed the range
// check and panicked the receiver with "index out of range [-1]".
func wrapIndexPayload() []byte {
	p := binary.AppendUvarint(nil, 4)
	p = binary.AppendUvarint(p, 1)
	p = binary.AppendUvarint(p, math.MaxUint64)
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(1.5))
}

func TestDecodeRejectsWrappingIndexDelta(t *testing.T) {
	for _, id := range []ID{IDTopK, IDDelta} {
		dst := []float64{1, 2, 3, 4}
		if err := DecodePayload(id, wrapIndexPayload(), dst); err == nil {
			t.Errorf("%s: index delta 2^64-1 accepted", id)
		}
		if dst[0] != 1 || dst[3] != 4 {
			t.Errorf("%s: rejected payload still wrote dst: %v", id, dst)
		}
	}
}

// repeatedIndexPayload is a 4-value sparse block listing index 2 twice (a
// zero index delta after the first): the dense decode would keep the second
// value and a sparse apply would add both.
func repeatedIndexPayload() []byte {
	p := binary.AppendUvarint(nil, 4)
	p = append(p, 2, 2, 0)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1.5))
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(2.5))
}

func TestDecodeRejectsRepeatedIndex(t *testing.T) {
	for _, id := range []ID{IDTopK, IDDelta} {
		dst := []float64{1, 2, 3, 4}
		if err := DecodePayload(id, repeatedIndexPayload(), dst); err == nil {
			t.Errorf("%s: a repeated index was accepted", id)
		}
		if dst[2] != 3 {
			t.Errorf("%s: rejected payload still wrote dst: %v", id, dst)
		}
	}
	if _, err := DecodeTopK(repeatedIndexPayload(), 4, sparse.Vec{}); err == nil {
		t.Error("DecodeTopK accepted a repeated index")
	}
}

// FuzzDecodePayload throws arbitrary bytes at every codec ID (and a few
// unknown ones) with dst lengths 0..64. Payloads arrive from the network, so
// the only acceptable outcomes are an error that leaves dst untouched, or a
// clean decode that consumed the payload exactly (DecodePayload's own
// contract) — never a panic. A top-k payload decodes to the same entries
// sparse (DecodeTopK) as dense, and the one-pass delta decode (DecodeDelta)
// writes over a base what DecodePayload writes over it; each accepts a
// payload exactly when DecodePayload does.
func FuzzDecodePayload(f *testing.F) {
	f.Add(wrapIndexPayload(), uint8(IDTopK), uint8(4))
	f.Add(wrapIndexPayload(), uint8(IDDelta), uint8(4))
	f.Add(repeatedIndexPayload(), uint8(IDTopK), uint8(4))
	f.Add(repeatedIndexPayload(), uint8(IDDelta), uint8(4))
	vals := []float64{3, -1, 0, 2, math.Inf(-1)}
	for _, c := range []Codec{Raw{}, TopK{Frac: 0.4}, Q8{Block: 2}, Delta{}} {
		p := EncodePayload(c, vals, nil, nil, nil)
		f.Add(p, uint8(c.ID()), uint8(len(vals)))
		f.Add(append(p, 0), uint8(c.ID()), uint8(len(vals))) // a trailing byte
		f.Add(p[:len(p)-1], uint8(c.ID()), uint8(len(vals)))
	}
	f.Add([]byte{}, uint8(IDQ8), uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, id, n uint8) {
		base := make([]float64, int(n)%65)
		for i := range base {
			base[i] = float64(i) + 0.5
		}
		dst := slices.Clone(base)
		first := DecodePayload(ID(id%5), payload, dst)
		if first != nil && !slices.Equal(dst, base) {
			t.Fatalf("refused payload (%v) stored into dst: %v", first, dst)
		}
		switch ID(id % 5) {
		case IDTopK:
			g, err := DecodeTopK(payload, len(dst), sparse.Vec{})
			if (err == nil) != (first == nil) {
				t.Fatalf("dense decode error %v, sparse decode error %v", first, err)
			}
			if err != nil && (len(g.Idx) != 0 || len(g.Val) != 0) {
				t.Fatalf("refused sparse decode kept %d indices, %d values", len(g.Idx), len(g.Val))
			}
			if err == nil {
				expanded := make([]float64, len(dst))
				for j, ix := range g.Idx {
					expanded[ix] = g.Val[j]
				}
				sameBits(t, "sparse decode", dst, expanded)
			}
		case IDDelta:
			block := slices.Clone(base)
			_, err := DecodeDelta(payload, block, nil)
			if (err == nil) != (first == nil) {
				t.Fatalf("dense decode error %v, one-pass decode error %v", first, err)
			}
			sameBits(t, "one-pass delta decode", dst, block)
		}
		if first != nil {
			return
		}
		// A payload that decodes once decodes the same way again.
		again := slices.Clone(base)
		if err := DecodePayload(ID(id%5), payload, again); err != nil {
			t.Fatalf("second decode of an accepted payload failed: %v", err)
		}
		sameBits(t, "a second decode", dst, again)
	})
}

// sameBits fails t unless got has want's bits.
func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("entry %d: DecodePayload %g, %s %g", i, want[i], what, got[i])
		}
	}
}

// FuzzCodecRoundTrip feeds randomized blocks through every codec and asserts
// each one's reconstruction contract:
//
//	raw, delta — exact round-trip
//	topk       — decoded entries are exactly the originals; dropped entries
//	             are zero; at least 1 and at most ceil(frac·n) survive
//	q8         — per-entry error bounded by one quantum (block scale / 127)
//
// Every codec must debit exactly what its decoder reconstructs, since the
// error-feedback residual depends on it matching what the server applies.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), 8, 0.25, 4)
	f.Add(int64(42), 1, 0.5, 1)
	f.Add(int64(7), 300, 0.1, 64)
	f.Add(int64(-3), 17, 0.9, 256)
	f.Fuzz(func(t *testing.T, seed int64, n int, frac float64, block int) {
		if n < 1 || n > 4096 {
			return
		}
		if frac <= 0 || frac > 1 || math.IsNaN(frac) {
			return
		}
		if block < 1 || block > 4096 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		base := make([]float64, n)
		copy(base, vals)
		for i := range base {
			if rng.Intn(3) == 0 {
				base[i] += rng.NormFloat64()
			}
		}

		check := func(c Codec, useBase []float64, encRNG *rand.Rand, verify func(dst []float64)) {
			t.Helper()
			debit := make([]float64, n)
			payload := EncodePayload(c, vals, useBase, debit, encRNG)
			dst := make([]float64, n)
			if useBase != nil {
				copy(dst, useBase)
			}
			if err := DecodePayload(c.ID(), payload, dst); err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			for i := range dst {
				if dst[i] != -debit[i] {
					t.Fatalf("%s: debited %g at %d but decode produced %g", c.Name(), -debit[i], i, dst[i])
				}
			}
			verify(dst)
		}

		check(Raw{}, nil, nil, func(dst []float64) {
			for i := range vals {
				if dst[i] != vals[i] {
					t.Fatalf("raw: dst[%d] = %g, want %g", i, dst[i], vals[i])
				}
			}
		})

		check(Delta{}, base, nil, func(dst []float64) {
			for i := range vals {
				if dst[i] != vals[i] {
					t.Fatalf("delta: dst[%d] = %g, want %g", i, dst[i], vals[i])
				}
			}
		})

		check(TopK{Frac: frac}, nil, nil, func(dst []float64) {
			maxK := int(math.Ceil(frac * float64(n)))
			if maxK < 1 {
				maxK = 1
			}
			kept := 0
			for i := range vals {
				switch dst[i] {
				case vals[i]:
					if vals[i] != 0 {
						kept++
					}
				case 0:
					// dropped
				default:
					t.Fatalf("topk: dst[%d] = %g is neither original %g nor zero", i, dst[i], vals[i])
				}
			}
			if kept > maxK {
				t.Fatalf("topk: kept %d nonzero entries, max %d", kept, maxK)
			}
		})

		check(Q8{Block: block}, nil, rand.New(rand.NewSource(seed+1)), func(dst []float64) {
			for lo := 0; lo < n; lo += block {
				hi := lo + block
				if hi > n {
					hi = n
				}
				scale := 0.0
				for _, v := range vals[lo:hi] {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				quantum := scale / 127
				for i := lo; i < hi; i++ {
					if err := math.Abs(dst[i] - vals[i]); err > quantum+1e-12 {
						t.Fatalf("q8: dst[%d] error %g exceeds quantum %g", i, err, quantum)
					}
				}
			}
		})
	})
}

// FuzzRestoreState throws arbitrary bytes at the residual-store reader, which
// reads files from a node's checkpoint directory: it must not panic, and a
// file it accepts must be exactly what Snapshot writes for what it decoded.
func FuzzRestoreState(f *testing.F) {
	st := NewState([]int{3, 0, 5})
	st.Residuals[0][1] = 1.25
	st.Residuals[2][4] = math.Copysign(0, -1)
	st.Residuals[2][0] = math.NaN()
	f.Add(st.Snapshot())
	f.Add(lyingStateHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := RestoreState(data)
		if err != nil {
			return
		}
		if out := st.Snapshot(); !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, out)
		}
	})
}
