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
//	delta — the entries a receiver's base lacks, with their new values: a
//	        shard's reply that lists only what was written since the block
//	        the worker holds (see ps replies.go).
//
// topk and q8 are lossy; workers using them keep an error-feedback residual
// per shard (see State) so the dropped/rounded mass re-enters later pushes
// and convergence is preserved.
package codec

import (
	"encoding/binary"
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
	// Decode decodes one payload encoded by Encode into dst, whose length
	// must equal the original block's. Lossy sparsifying codecs (topk) zero
	// the entries they dropped; delta leaves unlisted entries at their base
	// values. It rejects short or trailing bytes and length mismatches, and
	// a payload it rejects stores nothing: every decoder checks the whole
	// payload before its first store.
	Decode(payload []byte, dst []float64) error
}

// DecodePayload decodes one self-contained payload produced by the codec
// with the given ID into dst. It rejects unknown IDs, short or trailing
// bytes, and length mismatches, and leaves dst untouched when it does.
func DecodePayload(id ID, payload []byte, dst []float64) error {
	switch id {
	case IDRaw:
		return Raw{}.Decode(payload, dst)
	case IDTopK:
		return TopK{}.Decode(payload, dst)
	case IDQ8:
		return Q8{}.Decode(payload, dst)
	case IDDelta:
		return Delta{}.Decode(payload, dst)
	}
	return fmt.Errorf("codec: unknown codec id %d", uint8(id))
}

// DecodeTopK decodes a top-k payload for a block of n values into the entries
// it carries, reusing dst's storage: the sparse form of what DecodePayload
// writes densely, accepting exactly the same payloads. It reads every index
// once, and a refused payload leaves dst empty.
func DecodeTopK(payload []byte, n int, dst sparse.Vec) (sparse.Vec, error) {
	_, vals, err := sparseEntries(payload, n, IDTopK, &dst.Idx)
	dst.Val = slices.Grow(dst.Val[:0], len(dst.Idx))
	for j := range dst.Idx {
		dst.Val = append(dst.Val, math.Float64frombits(binary.LittleEndian.Uint64(vals[8*j:])))
	}
	return dst, err
}

// DecodeDelta decodes a delta payload over block, the base it was computed
// against, as DecodePayload does and accepting exactly the same payloads, but
// reads every index once: idx is scratch for the indices, returned for reuse.
// A refused payload leaves block untouched.
func DecodeDelta(payload []byte, block []float64, idx []int32) ([]int32, error) {
	_, vals, err := sparseEntries(payload, len(block), IDDelta, &idx)
	for j, i := range idx {
		block[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*j:]))
	}
	return idx, err
}

// sparseEntries parses the payload topk and delta share — the block length
// n, a count, that many delta-coded ascending indices, then that many values
// — straight from its bytes, and checks all of it before anything is stored:
// every index lies in the block and above the one before it (a zero delta
// after the first would list an index twice), and exactly the values remain.
// It returns the index deltas' bytes and the values' bytes. With idx set, it
// also sets *idx to the indices, reusing its storage and collected as it
// checks them, so a caller that keeps them reads every index once; on error
// *idx is empty.
func sparseEntries(payload []byte, n int, id ID, idx *[]int32) (deltas, vals []byte, err error) {
	var out []int32
	if idx != nil {
		out = (*idx)[:0]
		*idx = out
	}
	bad := func(err error) ([]byte, []byte, error) {
		return nil, nil, fmt.Errorf("codec: decoding %s payload: %w", id, err)
	}
	got, k := binary.Uvarint(payload)
	if k <= 0 {
		return bad(wire.ErrShortBuffer)
	}
	if got != uint64(n) {
		return bad(fmt.Errorf("payload is for %d values, want %d", got, n))
	}
	c, j := binary.Uvarint(payload[k:])
	if j <= 0 {
		return bad(wire.ErrShortBuffer)
	}
	if c > uint64(n) {
		return bad(fmt.Errorf("%s lists %d of %d values", id, c, n))
	}
	deltas = payload[k+j:]
	b := deltas
	if idx != nil {
		// Every index takes at least a byte, so a short payload cannot make
		// this grow past its own length.
		out = slices.Grow(out, int(min(c, uint64(len(b)))))
	}
	// Bounding each delta by what is left of the block, not the sum, keeps a
	// delta >= 2^63 from wrapping pos negative; after the first index a delta
	// must be at least 1, or the index would repeat.
	pos, least := 0, uint64(0)
	for range c {
		var d uint64
		if len(b) > 0 && b[0] < 0x80 {
			d, b = uint64(b[0]), b[1:] // most deltas take one byte
		} else {
			if d, k = binary.Uvarint(b); k <= 0 {
				return bad(wire.ErrShortBuffer)
			}
			b = b[k:]
		}
		if d < least || d >= uint64(n-pos) {
			return bad(fmt.Errorf("%s index %d+%d out of range %d or repeated", id, pos, d, n))
		}
		pos += int(d)
		least = 1
		if idx != nil {
			out = append(out, int32(pos))
		}
	}
	if uint64(len(b)) != 8*c {
		return bad(fmt.Errorf("%s block needs %d more bytes, payload has %d", id, 8*c, len(b)))
	}
	if idx != nil {
		*idx = out
	}
	return deltas[:len(deltas)-len(b)], b, nil
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

// rest checks that exactly size bytes remain in r, the rest of the block a
// decoder is about to store.
func rest(r *wire.Reader, size uint64, name string) bool {
	if r.Err() == nil && uint64(r.Remaining()) != size {
		r.Fail(fmt.Errorf("codec: %s block needs %d more bytes, payload has %d", name, size, r.Remaining()))
	}
	return r.Err() == nil
}

// decodeSparse stores a sparse payload's values at their indices in dst,
// zeroed first when zero is set.
func decodeSparse(id ID, payload []byte, dst []float64, zero bool) error {
	deltas, vals, err := sparseEntries(payload, len(dst), id, nil)
	if err != nil {
		return err
	}
	if zero {
		clear(dst)
	}
	for j, pos := 0, 0; j < len(vals); j += 8 {
		d, k := binary.Uvarint(deltas)
		deltas = deltas[k:]
		pos += int(d)
		dst[pos] = math.Float64frombits(binary.LittleEndian.Uint64(vals[j:]))
	}
	return nil
}

// EncodeEntries appends a delta payload that lists vals at the indices idx,
// which must ascend strictly: what Delta.Encode writes when exactly those
// entries differ from the receiver's base.
func EncodeEntries(w *wire.Writer, vals []float64, idx []int32) {
	w.Uvarint(uint64(len(vals)))
	w.Uvarint(uint64(len(idx)))
	prev := int32(0)
	for _, i := range idx {
		w.Uvarint(uint64(i - prev))
		prev = i
	}
	for _, i := range idx {
		w.Float64(vals[i])
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
func (Raw) Decode(payload []byte, dst []float64) error {
	r := wire.NewReader(payload)
	if blockLen(r, len(dst)) && rest(r, 8*uint64(len(dst)), "raw") {
		for i := range dst {
			dst[i] = r.Float64()
		}
	}
	return payloadErr(IDRaw, r)
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
	if n == 0 {
		EncodeEntries(w, vals, nil)
		return
	}
	k := min(max(int(math.Ceil(frac*float64(n))), 1), n)
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
	// equal to it: k entries.
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
	EncodeEntries(w, vals, cand[:kept])
	if debit != nil {
		for _, i := range cand[:kept] {
			debit[i] -= vals[i]
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
func (TopK) Decode(payload []byte, dst []float64) error {
	return decodeSparse(IDTopK, payload, dst, true)
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
func (Q8) Decode(payload []byte, dst []float64) error {
	r := wire.NewReader(payload)
	n := len(dst)
	if !blockLen(r, n) {
		return payloadErr(IDQ8, r)
	}
	block := int(r.Uvarint())
	if r.Err() != nil {
		return payloadErr(IDQ8, r)
	}
	if block <= 0 {
		r.Fail(fmt.Errorf("codec: q8 block size %d", block))
		return payloadErr(IDQ8, r)
	}
	blocks := 0
	if n > 0 {
		blocks = 1 + (n-1)/block
	}
	if !rest(r, 8*uint64(blocks)+uint64(n), "q8") {
		return payloadErr(IDQ8, r)
	}
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		scale := r.Float64()
		for i := lo; i < hi; i++ {
			q := int8(r.Uint8())
			dst[i] = float64(q) * scale / 127
		}
	}
	return payloadErr(IDQ8, r)
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
func (Delta) Decode(payload []byte, dst []float64) error {
	return decodeSparse(IDDelta, payload, dst, false)
}
