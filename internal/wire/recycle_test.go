package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestInts32LyingLengthIsRefused: a length prefix is believed only as far as
// the bytes behind it. Six bytes used to buy a 1 GiB allocation and 2^28
// no-op loop iterations on the connection's reader goroutine.
//
// Other goroutines of the test binary allocate too, so one TotalAlloc window
// can read their bytes: the pin takes the fast quartile of 51 refusals, run
// on one P.
func TestInts32LyingLengthIsRefused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := NewWriter(0)
	w.Uvarint(maxSliceLen)
	w.Uint8(2) // one entry where 2^28 are claimed
	frame := w.Bytes()

	allocs := make([]uint64, 51)
	took := make([]time.Duration, len(allocs))
	var before, after runtime.MemStats
	for i := range allocs {
		r := NewReader(frame)
		runtime.ReadMemStats(&before)
		start := time.Now()
		got := r.Ints32()
		took[i] = time.Since(start)
		runtime.ReadMemStats(&after)
		if got != nil || !errors.Is(r.Err(), ErrShortBuffer) {
			t.Fatalf("Ints32 = %d entries, err %v; want nil, ErrShortBuffer", len(got), r.Err())
		}
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(allocs)
	slices.Sort(took)
	if n := allocs[len(allocs)/4]; n >= 4<<10 {
		t.Errorf("refusing the frame allocated %d bytes, want < 4 KiB", n)
	}
	if d := took[len(took)/4]; d > time.Second {
		t.Errorf("refusing the frame took %v", d)
	}
}

// TestInts32StopsAtFirstError: a length that passes the remaining-bytes check
// but runs out of varints mid-way fails with the first error, not after
// spinning through the rest of the claimed length.
func TestInts32StopsAtFirstError(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(3)
	w.Varint(1)
	w.Varint(math.MaxInt32 + 1)
	w.Varint(2)
	r := NewReader(w.Bytes())
	if got := r.Ints32(); got != nil || r.Err() == nil || errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Ints32 = %v, err %v; want nil and an out-of-range error", got, r.Err())
	}
	if r.Remaining() == 0 {
		t.Error("decoding went on past the failing entry")
	}
}

// TestFloat64sBlocksMatchPerElementCoding pins the four-wide loops to the
// format: every length around the unroll width, and a full block, encode to
// exactly length prefix + little-endian IEEE-754 bits and decode to the same
// bits, NaN payloads and signed zeros included.
func TestFloat64sBlocksMatchPerElementCoding(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8dead0000beef), -1.5}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 8192} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = special[i%len(special)] + float64(i/len(special))
		}
		want := binary.AppendUvarint(nil, uint64(n))
		for _, v := range vs {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
		w := NewWriter(0)
		w.Uint8(0xAA) // the block does not start at the buffer's beginning
		w.Float64s(vs)
		if !bytes.Equal(w.Bytes()[1:], want) {
			t.Fatalf("n=%d: encoding differs from the per-element reference", n)
		}
		got := NewReader(want).Float64s()
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d values", n, len(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("n=%d: value %d decoded as %x, want %x", n, i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
			}
		}
	}
}

// TestDecodeIntoReusesStorageAndCopiesOut covers the three decode-into
// primitives: a destination with room is filled in place, one without is
// replaced, a zero-length slice comes back empty but non-nil (as the plain
// readers always returned it), an error returns nil, and the result never
// aliases the Reader's input.
func TestDecodeIntoReusesStorageAndCopiesOut(t *testing.T) {
	w := NewWriter(0)
	w.Float64s([]float64{1, 2, 3})
	w.Bytes2([]byte{4, 5, 6})
	w.Ints32([]int32{7, -8, 9})
	w.Float64s(nil)
	w.Bytes2(nil)
	w.Ints32(nil)
	src := bytes.Clone(w.Bytes())

	fs, bs, is := make([]float64, 8), make([]byte, 8), make([]int32, 8)
	r := NewReader(src)
	gotF, gotB, gotI := r.Float64sInto(fs), r.BytesInto(bs), r.Ints32Into(is)
	if &gotF[0] != &fs[0] || &gotB[0] != &bs[0] || &gotI[0] != &is[0] {
		t.Error("a destination with room was not decoded into")
	}
	emptyF, emptyB, emptyI := r.Float64sInto(gotF), r.BytesInto(nil), r.Ints32Into(gotI)
	if emptyF == nil || emptyB == nil || emptyI == nil || len(emptyF)+len(emptyB)+len(emptyI) != 0 {
		t.Errorf("zero-length slices decoded as %v %v %v, want empty non-nil", emptyF, emptyB, emptyI)
	}
	if err := r.Err(); err != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", err, r.Remaining())
	}
	for i := range src {
		src[i] = 0xFF
	}
	if gotF[2] != 3 || gotB[2] != 6 || gotI[1] != -8 || len(gotF) != 3 || len(gotB) != 3 || len(gotI) != 3 {
		t.Errorf("decoded %v %v %v", gotF, gotB, gotI)
	}

	// Too small a destination is replaced, not overrun.
	r = NewReader(w.Bytes())
	small := make([]float64, 1, 2)
	if got := r.Float64sInto(small); len(got) != 3 || got[2] != 3 || small[0] != 0 {
		t.Errorf("undersized destination: got %v, destination now %v", got, small)
	}
	// After an error the destination is not handed back half-filled.
	r = NewReader(w.Bytes()[:10])
	if got := r.Float64sInto(fs); got != nil || r.Err() == nil {
		t.Errorf("truncated block decoded as %v, err %v", got, r.Err())
	}
}

// pooledMsg has one field of each kind the race-build poison looks for.
type pooledMsg struct {
	F []float64
	B []byte
	I []int32
}

const pooledKind Kind = 9998

func (m *pooledMsg) Kind() Kind { return pooledKind }
func (m *pooledMsg) Encode(w *Writer) {
	w.Float64s(m.F)
	w.Bytes2(m.B)
	w.Ints32(m.I)
}
func (m *pooledMsg) Decode(r *Reader) {
	m.F = r.Float64sInto(m.F)
	m.B = r.BytesInto(m.B)
	m.I = r.Ints32Into(m.I)
}

// TestRegistryRecycle: a recycled message of a pooled kind is what the next
// Unmarshal of that kind decodes into, and a kind without a pool is ignored.
func TestRegistryRecycle(t *testing.T) {
	var pool sync.Pool
	reg := NewRegistry([]RegistryEntry{
		{Kind: testKind, Name: "test", New: func() Message { return &testMsg{} }},
		{Kind: pooledKind, Name: "pooled", New: func() Message { return &pooledMsg{} }, Pool: &pool},
	})
	a := Marshal(&pooledMsg{F: []float64{1, 2, 3}, B: []byte{4, 5}, I: []int32{6}})
	b := Marshal(&pooledMsg{F: []float64{9}, B: []byte{8, 7, 6}, I: []int32{}})

	first, err := reg.Unmarshal(a)
	if err != nil {
		t.Fatal(err)
	}
	reg.Recycle(first)
	// sync.Pool may drop what it is given (it does so at random under the race
	// detector), so the pool holds the recycled message or nothing.
	if got := pool.Get(); got != nil && got != first {
		t.Fatalf("pool held %v after Recycle", got)
	}
	pool.Put(first)
	second, err := reg.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got := second.(*pooledMsg)
	if len(got.F) != 1 || got.F[0] != 9 || !bytes.Equal(got.B, []byte{8, 7, 6}) || got.I == nil || len(got.I) != 0 {
		t.Errorf("decode into a recycled message = %+v", got)
	}

	plain, err := reg.Unmarshal(Marshal(&testMsg{A: 1, V: []float64{5}}))
	if err != nil {
		t.Fatal(err)
	}
	reg.Recycle(plain)
	if plain.(*testMsg).V[0] != 5 {
		t.Error("Recycle touched a message of a kind without a pool")
	}
}
