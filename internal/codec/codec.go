// Package codec implements the gradient/parameter compression layer that
// sits between the training protocol (internal/msg) and the wire encoding
// (internal/wire). SpecSync's speculation logic keys off push *arrival
// rates*, and under the simulator a message's transfer time is derived from
// its encoded byte count — so a codec does not just save bandwidth, it
// shifts push timing and therefore abort/re-sync dynamics.
//
// Four codecs are provided:
//
//	raw   — passthrough float64 blocks; the default, byte-identical to the
//	        legacy (v1) message layouts.
//	topk  — magnitude top-k sparsification: only the k largest-|v| entries
//	        of a gradient block travel, as index/value pairs.
//	q8    — stochastic 8-bit quantization with one float64 scale per block
//	        of Q8Block values.
//	delta — pull-side delta encoding: a shard resends only the entries that
//	        changed since the block it last sent that worker.
//
// topk and q8 are lossy; workers using them keep an error-feedback residual
// per shard (see State) so the dropped/rounded mass re-enters later pushes
// and convergence is preserved.
package codec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"specsync/internal/wire"
)

// ID tags a codec on the wire (msg.PushReqV2.Codec / msg.PullRespV2.Codec).
// Values are part of the wire format; never renumber them.
type ID uint8

// Wire codec identifiers.
const (
	IDRaw   ID = 0
	IDTopK  ID = 1
	IDQ8    ID = 2
	IDDelta ID = 3
)

// String returns the codec's wire-format name.
func (id ID) String() string {
	switch id {
	case IDRaw:
		return "raw"
	case IDTopK:
		return "topk"
	case IDQ8:
		return "q8"
	case IDDelta:
		return "delta"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// Codec encodes float64 blocks into self-describing payloads. Payloads decode
// without any codec parameters: everything a decoder needs (lengths, block
// sizes, scales) is in the payload, so only the one-byte ID travels alongside.
type Codec interface {
	// ID returns the codec's wire identifier.
	ID() ID
	// Name returns the codec's human-readable name (used as a metric label).
	Name() string
	// Lossless reports whether Decode(Encode(x)) reproduces x exactly.
	Lossless() bool
	// Encode appends the coded form of vals to w.
	//
	//   - base is the receiver's current copy of the block; only delta uses
	//     it (nil for the others). Decode must then run against a dst
	//     pre-filled with base.
	//   - recon, when non-nil (length len(vals)), is filled with the exact
	//     values Decode will reconstruct, so callers can maintain
	//     error-feedback residuals without a decode round-trip. It is the
	//     encoder's scratch until Encode returns, so it must not alias vals.
	//   - rng feeds stochastic codecs (q8's stochastic rounding);
	//     deterministic codecs ignore it, and a nil rng falls back to
	//     deterministic rounding.
	Encode(w *wire.Writer, vals, base, recon []float64, rng *rand.Rand)
	// Decode reads one block encoded by Encode into dst, whose length must
	// equal the original block's. Lossy sparsifying codecs (topk) zero the
	// entries they dropped; delta leaves unlisted entries at their base
	// values. Failures surface through r's sticky error.
	Decode(r *wire.Reader, dst []float64)
}

// DecodePayload decodes one self-contained payload produced by the codec
// with the given ID into dst. It rejects unknown IDs, short or trailing
// bytes, and length mismatches.
func DecodePayload(id ID, payload []byte, dst []float64) error {
	// Concrete receivers keep the Reader on the stack; through the Codec
	// interface it would escape, one allocation per payload.
	r := wire.NewReader(payload)
	switch id {
	case IDRaw:
		Raw{}.Decode(r, dst)
	case IDTopK:
		TopK{}.Decode(r, dst)
	case IDQ8:
		Q8{}.Decode(r, dst)
	case IDDelta:
		Delta{}.Decode(r, dst)
	default:
		return fmt.Errorf("codec: unknown codec id %d", uint8(id))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("codec: decoding %s payload: %w", id, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("codec: %s payload has %d trailing bytes", id, r.Remaining())
	}
	return nil
}

// EncodePayload encodes one block into a fresh byte slice using a pooled
// scratch writer. See Codec.Encode for the parameter contract.
func EncodePayload(c Codec, vals, base, recon []float64, rng *rand.Rand) []byte {
	w := wire.GetWriter()
	c.Encode(w, vals, base, recon, rng)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	wire.PutWriter(w)
	return out
}

// blockLen reads and validates the leading element count every codec writes.
func blockLen(r *wire.Reader, dst []float64) (int, bool) {
	n := r.Uvarint()
	if r.Err() != nil {
		return 0, false
	}
	if n != uint64(len(dst)) {
		r.Fail(fmt.Errorf("codec: payload is for %d values, want %d", n, len(dst)))
		return 0, false
	}
	return len(dst), true
}

// decodeSparse reads the body topk and delta share — a count, that many
// delta-coded ascending indices, then that many values — and stores each
// value at its index. The indices are validated in one pass before dst is
// touched (zeroed first when zero is set), then replayed by a second cursor
// beside the values, so nothing is materialised. name labels errors.
func decodeSparse(r *wire.Reader, dst []float64, name string, zero bool) {
	n, ok := blockLen(r, dst)
	if !ok {
		return
	}
	count := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if count > uint64(n) {
		r.Fail(fmt.Errorf("codec: %s lists %d of %d values", name, count, n))
		return
	}
	idx := *r // the second cursor: a Reader is its buffer plus an offset
	pos := 0
	for i := uint64(0); i < count; i++ {
		d := r.Uvarint()
		if r.Err() != nil {
			return
		}
		// Bounding the delta, not the sum, keeps a delta >= 2^63 from
		// wrapping pos negative and slipping under the range check.
		if d >= uint64(n-pos) {
			r.Fail(fmt.Errorf("codec: %s index %d+%d out of range %d", name, pos, d, n))
			return
		}
		pos += int(d)
	}
	if zero {
		clear(dst)
	}
	pos = 0
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		pos += int(idx.Uvarint())
		dst[pos] = r.Float64()
	}
}

// Raw is the passthrough codec: full float64 blocks, no loss.
type Raw struct{}

// ID implements Codec.
func (Raw) ID() ID { return IDRaw }

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Lossless implements Codec.
func (Raw) Lossless() bool { return true }

// Encode implements Codec.
func (Raw) Encode(w *wire.Writer, vals, _, recon []float64, _ *rand.Rand) {
	w.Float64s(vals)
	if recon != nil {
		copy(recon, vals)
	}
}

// Decode implements Codec.
func (Raw) Decode(r *wire.Reader, dst []float64) {
	if _, ok := blockLen(r, dst); !ok {
		return
	}
	for i := range dst {
		dst[i] = r.Float64()
	}
}

// TopK keeps only the Frac·n entries of largest magnitude (at least one).
// The kept set is exact and deterministic: every entry whose magnitude
// exceeds the k-th largest, plus the lowest-indexed entries that equal it.
// NaN ranks as +Inf, so the order is total and a poisoned gradient is sent
// (as raw sends it) instead of living on in the sender's residual.
type TopK struct {
	// Frac is the fraction of entries kept; zero means DefaultTopKFrac.
	Frac float64
}

// ID implements Codec.
func (TopK) ID() ID { return IDTopK }

// Name implements Codec.
func (TopK) Name() string { return "topk" }

// Lossless implements Codec.
func (TopK) Lossless() bool { return false }

// magnitude is top-k's sort key.
func magnitude(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return math.Abs(v)
}

// scratchPool lends TopK.Encode a selection buffer when the caller has none.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// Encode implements Codec. The selection runs in place on recon, which is
// overwritten anyway; only a caller without one borrows a pooled buffer.
func (c TopK) Encode(w *wire.Writer, vals, _, recon []float64, _ *rand.Rand) {
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
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(k))
	if n == 0 {
		return
	}

	mags := recon
	if mags == nil {
		pooled := scratchPool.Get().(*[]float64)
		defer scratchPool.Put(pooled)
		*pooled = slices.Grow((*pooled)[:0], n)
		mags = (*pooled)[:n]
	}
	for i, v := range vals {
		mags[i] = magnitude(v)
	}
	// t is the k-th largest magnitude; the k-1 above it sit in mags[n-k+1:].
	t := selectRank(mags, n-k, 2*bits.Len(uint(n)))
	ties := k
	for _, m := range mags[n-k+1:] {
		if m > t {
			ties--
		}
	}

	// One ascending pass keeps "above t, or one of the first ties equal to
	// t" and writes the index deltas; the values (and recon) then follow by
	// replaying those deltas from w itself, k steps instead of n.
	start, prev := w.Len(), 0
	for i, v := range vals {
		m := magnitude(v)
		if m < t {
			continue
		}
		if m == t {
			if ties == 0 {
				continue
			}
			ties--
		}
		w.Uvarint(uint64(i - prev)) // delta-coded ascending indices
		prev = i
	}
	clear(recon)
	idx := wire.NewReader(w.Bytes()[start:]) // stays valid if w reallocates
	for i, pos := 0, 0; i < k; i++ {
		pos += int(idx.Uvarint())
		w.Float64(vals[pos])
		if recon != nil {
			recon[pos] = vals[pos]
		}
	}
}

// selectRank reorders a so that a[rank] is the element an ascending sort
// would put there, with nothing larger before it and nothing smaller after,
// and returns it. a must hold no NaN. Hoare's FIND: equal keys are swapped,
// not skipped, so heavily tied input still halves. A range shorter than the
// pivot sample is sorted outright, and so is whatever is left after budget
// partitions (introselect), which bounds the worst case at O(n log n).
func selectRank(a []float64, rank, budget int) float64 {
	lo, hi := 0, len(a)-1
	for ; lo < hi; budget-- {
		if budget <= 0 || hi-lo < pivotSample {
			slices.Sort(a[lo : hi+1])
			break
		}
		p := pivotNear(a[lo:hi+1], rank-lo)
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] <= p <= a[i:hi+1], and anything between j and i equals p.
		switch {
		case rank <= j:
			hi = j
		case rank >= i:
			lo = i
		default:
			return a[rank]
		}
	}
	return a[rank]
}

// pivotSample is how many evenly spaced elements pivotNear sorts.
const pivotSample = 33

// pivotNear returns an element of a (at least pivotSample long) expected to
// sort close to position rank: the matching quantile of a sorted sample. That
// shrinks the range about pivotSample-fold per partition and, with top-k's
// rank near one end, makes the partition's comparisons predictable. Never the
// sample's extremes: on sorted input they are the range's, which would then
// shrink by one.
func pivotNear(a []float64, rank int) float64 {
	var sample [pivotSample]float64
	for i := range sample {
		sample[i] = a[i*(len(a)-1)/(pivotSample-1)]
	}
	slices.Sort(sample[:])
	return sample[min(max(rank*pivotSample/len(a), 1), pivotSample-2)]
}

// Decode implements Codec. Dropped entries are zeroed.
func (TopK) Decode(r *wire.Reader, dst []float64) {
	decodeSparse(r, dst, "topk", true)
}

// Q8 quantizes each block of Block values to int8 with a shared float64
// scale (the block's max magnitude). With an RNG, rounding is stochastic and
// unbiased; without, it rounds to nearest. Worst-case per-entry error is one
// quantum: scale/127.
type Q8 struct {
	// Block is the number of values sharing one scale; zero means
	// DefaultQ8Block.
	Block int
}

// ID implements Codec.
func (Q8) ID() ID { return IDQ8 }

// Name implements Codec.
func (Q8) Name() string { return "q8" }

// Lossless implements Codec.
func (Q8) Lossless() bool { return false }

// Encode implements Codec.
func (c Q8) Encode(w *wire.Writer, vals, _, recon []float64, rng *rand.Rand) {
	block := c.Block
	if block <= 0 {
		block = DefaultQ8Block
	}
	n := len(vals)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(block))
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
		w.Float64(scale)
		for i, v := range vals[lo:hi] {
			var q int
			if scale > 0 {
				f := v / scale * 127
				if rng != nil {
					floor := math.Floor(f)
					q = int(floor)
					if rng.Float64() < f-floor {
						q++
					}
				} else {
					q = int(math.Round(f))
				}
				if q > 127 {
					q = 127
				} else if q < -127 {
					q = -127
				}
			}
			w.Uint8(uint8(int8(q)))
			if recon != nil {
				recon[lo+i] = float64(q) * scale / 127
			}
		}
	}
}

// Decode implements Codec.
func (Q8) Decode(r *wire.Reader, dst []float64) {
	n, ok := blockLen(r, dst)
	if !ok {
		return
	}
	block := int(r.Uvarint())
	if r.Err() != nil {
		return
	}
	if block <= 0 {
		r.Fail(fmt.Errorf("codec: q8 block size %d", block))
		return
	}
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		scale := r.Float64()
		for i := lo; i < hi; i++ {
			q := int8(r.Uint8())
			dst[i] = float64(q) * scale / 127
		}
		if r.Err() != nil {
			return
		}
	}
}

// Delta encodes the entries of vals that differ from base as index/value
// pairs carrying the *new* values (so decoding is exact). Decode must run
// against a dst pre-filled with base; unlisted entries keep their base
// values. A nil base is treated as all-different (full resend).
type Delta struct{}

// ID implements Codec.
func (Delta) ID() ID { return IDDelta }

// Name implements Codec.
func (Delta) Name() string { return "delta" }

// Lossless implements Codec.
func (Delta) Lossless() bool { return true }

// Encode implements Codec.
func (Delta) Encode(w *wire.Writer, vals, base, recon []float64, _ *rand.Rand) {
	n := len(vals)
	changed := 0
	for i, v := range vals {
		if base == nil || i >= len(base) || base[i] != v {
			changed++
		}
	}
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(changed))
	prev := 0
	for i, v := range vals {
		if base != nil && i < len(base) && base[i] == v {
			continue
		}
		w.Uvarint(uint64(i - prev))
		prev = i
	}
	for i, v := range vals {
		if base != nil && i < len(base) && base[i] == v {
			continue
		}
		w.Float64(v)
	}
	if recon != nil {
		copy(recon, vals)
	}
}

// Decode implements Codec.
func (Delta) Decode(r *wire.Reader, dst []float64) {
	decodeSparse(r, dst, "delta", false)
}
