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
	"math/rand"
	"slices"
	"sync"

	"specsync/internal/sparse"
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
	// Encode appends the coded form of vals to w.
	//
	//   - base is the receiver's current copy of the block; only delta uses
	//     it (nil for the others). Decode must then run against a dst
	//     pre-filled with base.
	//   - debit, when non-nil (length len(vals)), has subtracted from each
	//     entry exactly the value Decode will reconstruct there, so a worker
	//     passing its error-feedback residual as both vals and debit keeps
	//     what the encoding dropped. Entries a sparsifying codec drops are
	//     not touched.
	//   - rng feeds stochastic codecs (q8's stochastic rounding);
	//     deterministic codecs ignore it, and a nil rng falls back to
	//     deterministic rounding.
	Encode(w *wire.Writer, vals, base, debit []float64, rng *rand.Rand)
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
	return payloadErr(id, r)
}

// DecodeTopK decodes a top-k payload for a block of n values into the entries
// it carries, reusing dst's storage: the sparse form of what DecodePayload
// writes densely, accepting exactly the same payloads.
func DecodeTopK(payload []byte, n int, dst sparse.Vec) (sparse.Vec, error) {
	r := wire.NewReader(payload)
	count, idx := sparseBody(r, n, "topk")
	dst.Idx, dst.Val = slices.Grow(dst.Idx[:0], count), slices.Grow(dst.Val[:0], count)
	for i, pos := 0, 0; i < count; i++ {
		pos += int(idx.Uvarint())
		dst.Idx = append(dst.Idx, int32(pos))
		dst.Val = append(dst.Val, r.Float64())
	}
	return dst, payloadErr(IDTopK, r)
}

// payloadErr reports a decode's sticky error or the bytes it left unread.
func payloadErr(id ID, r *wire.Reader) error {
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
func EncodePayload(c Codec, vals, base, debit []float64, rng *rand.Rand) []byte {
	w := wire.GetWriter()
	c.Encode(w, vals, base, debit, rng)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	wire.PutWriter(w)
	return out
}

// blockLen reads and validates the leading element count every codec writes.
func blockLen(r *wire.Reader, n int) bool {
	if got := r.Uvarint(); r.Err() == nil && got != uint64(n) {
		r.Fail(fmt.Errorf("codec: payload is for %d values, want %d", got, n))
	}
	return r.Err() == nil
}

// sparseBody validates the body topk and delta share — the block length n, a
// count, that many delta-coded ascending indices, then that many values —
// before anything is stored: every index lies in the block and above the one
// before it (a zero delta after the first would list an index twice), and
// the values are all there. It returns the count (0 when r has failed) and a
// cursor at the first index, and leaves r at the first value. name labels
// errors.
func sparseBody(r *wire.Reader, n int, name string) (count int, idx wire.Reader) {
	if !blockLen(r, n) {
		return 0, idx
	}
	c := r.Uvarint()
	if c > uint64(n) {
		r.Fail(fmt.Errorf("codec: %s lists %d of %d values", name, c, n))
	}
	idx = *r // the second cursor: a Reader is its buffer plus an offset
	pos := 0
	for i := uint64(0); i < c && r.Err() == nil; i++ {
		// Bounding the delta, not the sum, keeps a delta >= 2^63 from
		// wrapping pos negative and slipping under the range check.
		d := r.Uvarint()
		if r.Err() == nil && (d >= uint64(n-pos) || (d == 0 && i > 0)) {
			r.Fail(fmt.Errorf("codec: %s index %d+%d out of range %d or repeated", name, pos, d, n))
		}
		pos += int(d)
	}
	if r.Err() == nil && uint64(r.Remaining()) < 8*c {
		r.Fail(fmt.Errorf("codec: %s lists %d values in %d bytes", name, c, r.Remaining()))
	}
	if r.Err() != nil {
		return 0, idx
	}
	return int(c), idx
}

// decodeSparse stores a sparse body's values at their indices in dst, zeroed
// first when zero is set.
func decodeSparse(r *wire.Reader, dst []float64, name string, zero bool) {
	count, idx := sparseBody(r, len(dst), name)
	if zero && r.Err() == nil {
		clear(dst)
	}
	for i, pos := 0, 0; i < count; i++ {
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

// Encode implements Codec.
func (Raw) Encode(w *wire.Writer, vals, _, debit []float64, _ *rand.Rand) {
	w.Float64s(vals)
	debitAll(debit, vals)
}

// debitAll debits a lossless encoding: every entry, by its own value.
func debitAll(debit, vals []float64) {
	if debit != nil {
		for i, v := range vals {
			debit[i] -= v
		}
	}
}

// Decode implements Codec.
func (Raw) Decode(r *wire.Reader, dst []float64) {
	if !blockLen(r, len(dst)) {
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
	// scratch is the selection's working memory. Build gives each codec its
	// own; a TopK without one borrows a pooled scratch per encode.
	scratch *topkScratch
}

// ID implements Codec.
func (TopK) ID() ID { return IDTopK }

// Name implements Codec.
func (TopK) Name() string { return "topk" }

// infKey is +Inf's magnitude key; NaN's keys, all above it, are clamped to it.
const infKey = 0x7FF0_0000_0000_0000

// magKey is top-k's sort key: a float64's bits without the sign, which order
// like magnitudes.
func magKey(v float64) uint64 { return min(math.Float64bits(v)&^(1<<63), infKey) }

// Top-k's selection first histograms the keys' top topBits (the exponent and
// one mantissa bit), then narrows the boundary bucket refineBits at a time
// until at most sortBelow keys are left to sort.
const (
	topBits    = 12
	refineBits = 8
	sortBelow  = 32
)

// topkScratch is one encode's working memory, kept so that a warm encode
// allocates nothing.
type topkScratch struct {
	hist [1 << topBits]uint32
	cand []int32  // candidate indices
	sel  []uint64 // the boundary bucket's keys, narrowed by kth
}

var topkPool = sync.Pool{New: func() any { return new(topkScratch) }}

// Encode implements Codec. The k-th largest key t lies in the bucket where a
// histogram of the keys' top digit, summed from the top, first reaches k.
// The indices reaching that bucket are the candidates, collected in
// ascending order; t is selected among the bucket's own keys, and the kept
// entries are then emitted from the candidates alone.
func (c TopK) Encode(w *wire.Writer, vals, _, debit []float64, _ *rand.Rand) {
	frac := c.Frac
	if frac == 0 {
		frac = DefaultTopKFrac
	}
	n := len(vals)
	k := min(max(int(math.Ceil(frac*float64(n))), 1), n)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(k))
	if n == 0 {
		return
	}
	s := c.scratch
	if s == nil {
		s = topkPool.Get().(*topkScratch)
		defer topkPool.Put(s)
	}

	const shift = 63 - topBits
	hist := &s.hist
	clear(hist[:])
	for _, v := range vals {
		hist[magKey(v)>>shift]++
	}
	b, above := boundary(hist[:], k)
	// The loops below keep an entry by advancing a cursor past it, not by
	// branching on it: the branch would be as random as the data.
	s.cand = slices.Grow(s.cand[:0], n)[:n]
	cand, count := s.cand, 0
	for i, v := range vals {
		cand[count] = int32(i)
		if magKey(v) >= b<<shift {
			count++
		}
	}
	cand = cand[:count]
	s.sel = slices.Grow(s.sel[:0], count)[:count]
	sel, m := s.sel, 0
	for _, i := range cand {
		key := magKey(vals[i])
		sel[m] = key
		if key>>shift == b {
			m++
		}
	}
	t, ties := s.kth(sel[:m], k-above, shift)

	// Keep, in ascending index order, every key above t and the first ties
	// equal to it: the indices' deltas, then their values.
	kept := 0
	for _, i := range cand {
		key := magKey(vals[i])
		cand[kept] = i
		keep := key > t
		if key == t {
			keep = ties > 0
			ties--
		}
		if keep {
			kept++
		}
	}
	prev := 0
	for _, i := range cand[:kept] {
		w.Uvarint(uint64(int(i) - prev))
		prev = int(i)
	}
	for _, i := range cand[:kept] {
		v := vals[i]
		w.Float64(v)
		if debit != nil {
			debit[i] -= v
		}
	}
}

// boundary returns the highest bucket b whose count, summed with every
// bucket above it, reaches r, and that sum without b's own count.
func boundary(hist []uint32, r int) (b uint64, above int) {
	for i := len(hist) - 1; ; i-- {
		h := int(hist[i])
		if above+h >= r {
			return uint64(i), above
		}
		above += h
	}
}

// kth returns the r-th largest of keys, which agree on every bit from shift
// up, and how many of the r largest equal it. Each pass histograms the next
// digit and keeps only the boundary bucket's keys, until few enough remain,
// or all agree, to sort.
func (s *topkScratch) kth(keys []uint64, r, shift int) (t uint64, ties int) {
	for len(keys) > sortBelow && shift > 0 {
		next := max(shift-refineBits, 0)
		mask := uint64(1)<<(shift-next) - 1
		hist := s.hist[:mask+1]
		clear(hist)
		for _, key := range keys {
			hist[key>>next&mask]++
		}
		b, above := boundary(hist, r)
		r -= above
		kept := keys[:0]
		for _, key := range keys {
			if key>>next&mask == b {
				kept = append(kept, key)
			}
		}
		keys, shift = kept, next
	}
	slices.Sort(keys)
	t = keys[len(keys)-r]
	gt, _ := slices.BinarySearch(keys, t+1) // keys[gt:] exceed t
	return t, r - (len(keys) - gt)
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

// Encode implements Codec.
func (c Q8) Encode(w *wire.Writer, vals, _, debit []float64, rng *rand.Rand) {
	block := c.Block
	if block <= 0 {
		block = DefaultQ8Block
	}
	n := len(vals)
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(block))
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
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
				q = min(max(q, -127), 127)
			}
			w.Uint8(uint8(int8(q)))
			if debit != nil {
				debit[lo+i] -= float64(q) * scale / 127
			}
		}
	}
}

// Decode implements Codec.
func (Q8) Decode(r *wire.Reader, dst []float64) {
	n := len(dst)
	if !blockLen(r, n) {
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
		hi := min(lo+block, n)
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

// Encode implements Codec.
func (Delta) Encode(w *wire.Writer, vals, base, debit []float64, _ *rand.Rand) {
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
	debitAll(debit, vals)
}

// Decode implements Codec.
func (Delta) Decode(r *wire.Reader, dst []float64) {
	decodeSparse(r, dst, "delta", false)
}
