package codec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"specsync/internal/sparse"
	"specsync/internal/wire"
)

// oracleTopKEncode is TopK.Encode as it stood before the selection rewrite
// (full sort.Slice over all n entries), kept verbatim as the reference the
// new encoder must match byte for byte.
func oracleTopKEncode(c TopK, w *wire.Writer, vals, recon []float64) {
	frac := c.Frac
	if frac == 0 {
		frac = DefaultTopKFrac
	}
	n := len(vals)
	k := int(math.Ceil(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := math.Abs(vals[order[a]]), math.Abs(vals[order[b]])
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	kept := order[:k]
	sort.Ints(kept)

	w.Uvarint(uint64(n))
	w.Uvarint(uint64(k))
	if recon != nil {
		for i := range recon {
			recon[i] = 0
		}
	}
	prev := 0
	for _, idx := range kept {
		w.Uvarint(uint64(idx - prev)) // delta-coded ascending indices
		prev = idx
	}
	for _, idx := range kept {
		w.Float64(vals[idx])
		if recon != nil {
			recon[idx] = vals[idx]
		}
	}
}

// oracleBlock draws one block of the given shape. Every shape is NaN-free:
// the old comparator is not a strict weak order over NaN, so the oracle has
// no defined answer there (TestTopKNaNRanksAsInf pins the new rule instead).
func oracleBlock(rng *rand.Rand, shape, n int) []float64 {
	vals := make([]float64, n)
	switch shape {
	case 0: // Gaussian
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
	case 1: // heavily tied: four magnitudes, random signs
		for i := range vals {
			vals[i] = float64(rng.Intn(4)) * 0.25
			if rng.Intn(2) == 0 {
				vals[i] = -vals[i]
			}
		}
	case 2: // all equal
		v := rng.NormFloat64()
		for i := range vals {
			vals[i] = v
		}
	case 3: // all zero
	case 4: // mostly ±0 with a few nonzeros, fewer than most k
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = math.Copysign(0, -1)
			}
			if rng.Intn(50) == 0 {
				vals[i] = rng.NormFloat64()
			}
		}
	case 5: // Gaussian salted with ±Inf
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if rng.Intn(9) == 0 {
				vals[i] = math.Inf(rng.Intn(2)*2 - 1)
			}
		}
	case 6: // sorted ascending by magnitude
		for i := range vals {
			vals[i] = float64(i) * 1e-3
		}
	case 7: // every key in one top-digit bucket, most sharing all but 6 bits
		for i := range vals {
			vals[i] = 1 + float64(rng.Intn(64))*0x1p-52
			if rng.Intn(4) == 0 {
				vals[i] = 1 + rng.Float64()*0x1p-2
			}
		}
	case 8: // denormals and zeros, random signs
		for i := range vals {
			vals[i] = math.Float64frombits(rng.Uint64()&(1<<52-1) | rng.Uint64()&(1<<63))
			if rng.Intn(8) == 0 {
				vals[i] = 0
			}
		}
	case 9: // magnitudes spanning the whole exponent range, ±Inf included
		for i := range vals {
			vals[i] = math.Float64frombits(rng.Uint64()&^(0x7FF<<52) | uint64(rng.Intn(0x7FF))<<52)
			if rng.Intn(64) == 0 {
				vals[i] = math.Inf(rng.Intn(2)*2 - 1)
			}
		}
	case 10: // heavy tail: Cauchy
		for i := range vals {
			vals[i] = rng.NormFloat64() / rng.NormFloat64()
		}
	case 11: // the default k lands on a bucket edge: exactly k keys in [4, 6)
		k := int(math.Ceil(DefaultTopKFrac * float64(n)))
		for i, j := range rng.Perm(n) {
			vals[j] = 1 + rng.Float64()*0.5
			if i < k {
				vals[j] = -(4 + rng.Float64()*2)
			}
		}
	}
	return vals
}

const oracleShapes = 12

func TestTopKMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 2, 17, 4096, 8192}
	cases := 0
	for rep := 0; cases < 3000; rep++ {
		for _, n := range sizes {
			if n >= 4096 && rep%8 != 0 {
				continue // the large blocks are slow under the oracle's sort
			}
			// k = 1 (1e-9), k = n (1), the default, and a random fraction.
			fracs := []float64{1e-9, 1, DefaultTopKFrac, rng.Float64()}
			for shape := 0; shape < oracleShapes; shape++ {
				vals := oracleBlock(rng, shape, n)
				for _, frac := range fracs {
					cases++
					c := TopK{Frac: frac}
					wantRecon := make([]float64, n)
					want := wire.NewWriter(64)
					oracleTopKEncode(c, want, vals, wantRecon)

					// The debit is the worker's: its own residual, reduced by
					// what the decoder reconstructs.
					gotDebit := slices.Clone(vals)
					wantDebit := slices.Clone(vals)
					for i := range wantDebit {
						wantDebit[i] -= wantRecon[i]
					}
					withDebit := EncodePayload(c, slices.Clone(vals), nil, gotDebit, nil)
					without := EncodePayload(c, vals, nil, nil, nil)
					if !bytes.Equal(withDebit, want.Bytes()) || !bytes.Equal(without, want.Bytes()) {
						t.Fatalf("shape %d n %d frac %g: payload differs from the sort oracle", shape, n, frac)
					}
					if !reflect.DeepEqual(bitsOf(gotDebit), bitsOf(wantDebit)) {
						t.Fatalf("shape %d n %d frac %g: debit differs from the sort oracle's", shape, n, frac)
					}
					inPlace := slices.Clone(vals)
					EncodePayload(c, inPlace, nil, inPlace, nil)
					if !reflect.DeepEqual(bitsOf(inPlace), bitsOf(wantDebit)) {
						t.Fatalf("shape %d n %d frac %g: debiting vals in place differs", shape, n, frac)
					}
				}
			}
		}
	}
}

// bitsOf makes DeepEqual tell -0 from +0.
func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestTopKNaNRanksAsInf pins the one case the old comparator left undefined:
// NaN sorts with ±Inf (ties toward the lower index), so it is sent rather
// than kept in the residual.
func TestTopKNaNRanksAsInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		vals []float64
		frac float64
		want []float64 // NaN in want means "NaN kept here"
	}{
		{[]float64{1, nan, 3, -2}, 0.25, []float64{0, nan, 0, 0}},
		{[]float64{1, nan, 3, -2}, 0.5, []float64{0, nan, 3, 0}},
		{[]float64{-inf, nan, 5, nan}, 0.5, []float64{-inf, nan, 0, 0}},
		{[]float64{nan, -inf, 5, nan}, 0.75, []float64{nan, -inf, 0, nan}},
		{[]float64{nan, nan, nan}, 0.5, []float64{nan, nan, 0}},
	}
	for ci, c := range cases {
		payload := EncodePayload(TopK{Frac: c.frac}, c.vals, nil, nil, nil)
		dst := make([]float64, len(c.vals))
		if err := DecodePayload(IDTopK, payload, dst); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for i, w := range c.want {
			if got := dst[i]; math.IsNaN(w) != math.IsNaN(got) || (!math.IsNaN(w) && got != w) {
				t.Fatalf("case %d: entry %d = %v, want %v (decoded %v)", ci, i, got, w, dst)
			}
		}
	}
}

// TestKthRanksLikeSort drives the selector below the encoder with key sets
// the oracle shapes reach rarely: a few distinct keys repeated many times,
// keys agreeing on all but their lowest bits, and sets just above and below
// the sort cut-off, at every rank.
func TestKthRanksLikeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := new(topkScratch)
	for rep := 0; rep < 400; rep++ {
		n := 1 + rng.Intn(3*sortBelow)
		if rep%4 == 0 {
			n = 1 + rng.Intn(5000)
		}
		prefix := rng.Uint64() & (infKey - 1) &^ (1<<(63-topBits) - 1)
		low := []uint64{3, 1 << 20, 1 << (63 - topBits)}[rep%3]
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = prefix + uint64(rng.Int63n(int64(low)))
			if rep%5 == 0 {
				keys[i] = prefix + uint64(rng.Intn(4))
			}
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		r := 1 + rng.Intn(n)
		want := sorted[n-r]
		wantTies := 0
		for _, key := range sorted[n-r:] {
			if key == want {
				wantTies++
			}
		}
		if got, ties := s.kth(slices.Clone(keys), r, 63-topBits); got != want || ties != wantTies {
			t.Fatalf("rep %d n %d r %d: got key %#x with %d ties, want %#x with %d", rep, n, r, got, ties, want, wantTies)
		}
	}
}

func TestCodecSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 8192)
	base := make([]float64, len(vals))
	for i := range vals {
		vals[i] = rng.NormFloat64()
		if i%3 != 0 {
			base[i] = vals[i]
		}
	}
	debit := make([]float64, len(vals))
	dst := make([]float64, len(vals))
	w := wire.NewWriter(8 * len(vals))
	// A worker's codec comes from Build, which gives it its own selection
	// scratch: nothing here depends on a pool keeping what it is given.
	topk, _, err := Build(Config{Name: "topk", TopKFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	topkPayload := EncodePayload(topk, vals, nil, nil, nil)
	deltaPayload := EncodePayload(Delta{}, vals, base, nil, nil)
	// Decoding goes through DecodePayload, as every receiver's does: it calls
	// the concrete decoders, so the Reader stays off the heap too.
	decode := func(id ID, payload []byte) func() {
		return func() {
			if err := DecodePayload(id, payload, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A shard decodes a top-k push into entries it holds, grown once.
	var entries sparse.Vec
	decodeSparse := func() {
		var err error
		if entries, err = DecodeTopK(topkPayload, len(vals), entries); err != nil {
			t.Fatal(err)
		}
	}
	decodeSparse()
	// A worker decodes a delta reply over its block with index scratch it
	// holds, grown once.
	var idx []int32
	decodeDelta := func() {
		var err error
		if idx, err = DecodeDelta(deltaPayload, dst, idx); err != nil {
			t.Fatal(err)
		}
	}
	decodeDelta()
	for name, f := range map[string]func(){
		"TopK.Encode":   func() { w.Reset(); topk.Encode(w, vals, nil, debit, nil) },
		"TopK.Decode":   decode(IDTopK, topkPayload),
		"DecodeTopK":    decodeSparse,
		"Delta.Decode":  decode(IDDelta, deltaPayload),
		"DecodeDelta":   decodeDelta,
		"EncodeEntries": func() { w.Reset(); EncodeEntries(w, vals, idx) },
	} {
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}
