// Package wire implements the binary encoding used by every message that
// crosses a node boundary, for both the in-memory and TCP transports and for
// the discrete-event simulator. Messages are encoded with a compact,
// deterministic, hand-rolled format so that byte accounting (used by the
// communication-overhead experiments, paper Figs. 12-13) is exact and stable
// across runs.
//
// The encoding primitives follow a writer/sticky-error-reader pattern: a
// Writer appends to a growable buffer and never fails; a Reader records the
// first error it encounters and turns all subsequent reads into no-ops, so
// decode paths only check the error once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// ErrShortBuffer is reported by a Reader when a decode runs past the end of
// the input.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrTrailingBytes is reported by Unmarshal when a message decodes cleanly
// but leaves unread bytes behind, which indicates a codec mismatch.
var ErrTrailingBytes = errors.New("wire: trailing bytes after message")

// maxSliceLen bounds decoded slice lengths to guard against corrupt or
// malicious length prefixes allocating unbounded memory.
const maxSliceLen = 1 << 28

// Writer appends encoded values to an internal buffer. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded buffer. The returned slice aliases the Writer's
// internal storage and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the buffer for reuse, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a fixed-width little-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a variable-width unsigned integer.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a variable-width signed integer (zigzag encoded).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends an int as a Varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Duration appends a time.Duration as its nanosecond count.
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// Time appends a time.Time as nanoseconds since the Unix epoch. Sub-nanosecond
// monotonic components are dropped, which is acceptable for message
// timestamps.
func (w *Writer) Time(t time.Time) { w.Varint(t.UnixNano()) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes2 appends a length-prefixed byte slice. (Named to avoid clashing with
// the Bytes accessor.)
func (w *Writer) Bytes2(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Float64s appends a length-prefixed slice of doubles. The payload is
// written in one pre-grown block, four values per step with the bounds checks
// hoisted: parameter pulls and pushes are the hot path of the whole system.
func (w *Writer) Float64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	off := len(w.buf)
	need := len(vs) * 8
	w.buf = slices.Grow(w.buf, need)[:off+need]
	b := w.buf[off:]
	for len(vs) >= 4 && len(b) >= 32 {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(vs[0]))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(vs[1]))
		binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(vs[2]))
		binary.LittleEndian.PutUint64(b[24:32], math.Float64bits(vs[3]))
		vs, b = vs[4:], b[32:]
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
}

// Ints32 appends a length-prefixed slice of int32 values, varint-encoded.
func (w *Writer) Ints32(vs []int32) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Varint(int64(v))
	}
}

// Reader decodes values from a byte slice. The first decode error is sticky:
// all later reads return zero values, and Err reports the original failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset points r at buf and clears its offset and sticky error, so one
// Reader value can decode a stream of frames without a Reader per frame.
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail records err as the Reader's sticky error (if none is set yet). It
// lets layered decoders — e.g. codec payload validation — report semantic
// failures through the same single-check error path as primitive reads.
func (r *Reader) Fail(err error) { r.fail(err) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads a single byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a fixed-width little-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a variable-width unsigned integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a variable-width signed integer.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.off += n
	return v
}

// Int reads an int encoded with Writer.Int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// Duration reads a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.Varint()) }

// Time reads a time.Time encoded with Writer.Time.
func (r *Reader) Time() time.Time { return time.Unix(0, r.Varint()) }

func (r *Reader) sliceLen() int {
	n := r.Uvarint()
	if n > maxSliceLen {
		r.fail(fmt.Errorf("wire: slice length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte slice. The result is a copy.
func (r *Reader) Bytes() []byte { return r.BytesInto(nil) }

// BytesInto is Bytes decoding into dst's storage when it is large enough (and
// into a fresh slice when it is not, or dst is nil). A fresh slice replacing
// dst has a quarter of dst's capacity to spare: codec payloads vary in length
// from frame to frame, and a pooled message would otherwise reallocate at
// every new longest one. The result never aliases the Reader's input; it is
// nil after an error.
func (r *Reader) BytesInto(dst []byte) []byte {
	n := r.sliceLen()
	b := r.take(n)
	if b == nil {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]byte, 0, n+cap(dst)/4)
	}
	return append(dst[:0], b...)
}

// sized returns dst emptied when n values fit in its storage, else an empty
// slice that does — never nil, so a zero-length slice decodes empty, not nil,
// whatever dst was. The lengths it is given are backed by bytes already seen,
// so a lying length prefix cannot make it allocate.
func sized[T any](dst []T, n int) []T {
	if dst == nil || cap(dst) < n {
		return make([]T, 0, n)
	}
	return dst[:0]
}

// Float64s reads a length-prefixed slice of doubles.
func (r *Reader) Float64s() []float64 { return r.Float64sInto(nil) }

// Float64sInto is Float64s decoding into dst's storage; see BytesInto.
func (r *Reader) Float64sInto(dst []float64) []float64 {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	b := r.take(n * 8)
	if b == nil {
		return nil
	}
	out := sized(dst, n)[:n]
	vs := out
	for len(vs) >= 4 && len(b) >= 32 {
		vs[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		vs[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		vs[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:24]))
		vs[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:32]))
		vs, b = vs[4:], b[32:]
	}
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Ints32 reads a length-prefixed slice of int32 values.
func (r *Reader) Ints32() []int32 { return r.Ints32Into(nil) }

// Ints32Into is Ints32 decoding into dst's storage; see BytesInto. Every
// entry takes at least one byte, so a length beyond what is left to read is
// refused before anything is allocated, and decoding stops at the first error.
func (r *Reader) Ints32Into(dst []int32) []int32 {
	n := r.sliceLen()
	if r.err != nil {
		return nil
	}
	if n > r.Remaining() {
		r.fail(ErrShortBuffer)
		return nil
	}
	out := sized(dst, n)
	for i := 0; i < n; i++ {
		v := r.Varint()
		if r.err != nil {
			return nil
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			r.fail(fmt.Errorf("wire: int32 out of range: %d", v))
			return nil
		}
		out = append(out, int32(v))
	}
	return out
}
