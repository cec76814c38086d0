package wire

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWriterReaderScalars(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0xbeef)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Uvarint(300)
	w.Varint(-7)
	w.Int(-123456)
	w.Float64(math.Pi)
	w.Duration(3 * time.Second)
	w.Time(time.Unix(1700000000, 42))
	w.String("hello")
	w.Bytes2([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xab {
		t.Errorf("Uint8 = %#x, want 0xab", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool roundtrip failed")
	}
	if got := r.Uint16(); got != 0xbeef {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -7 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int(); got != -123456 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Duration(); got != 3*time.Second {
		t.Errorf("Duration = %v", got)
	}
	if got := r.Time(); !got.Equal(time.Unix(1700000000, 42)) {
		t.Errorf("Time = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	b := r.Bytes()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Bytes = %v", b)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected reader error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderShortBufferSticky(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.Uint32() // runs past end
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
	// All subsequent reads are no-ops returning zero values.
	if got := r.Uint8(); got != 0 {
		t.Errorf("post-error Uint8 = %d, want 0", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("post-error String = %q, want empty", got)
	}
	if got := r.Float64s(); got != nil {
		t.Errorf("post-error Float64s = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("error not sticky: %v", r.Err())
	}
}

func TestFloat64sCorruptLength(t *testing.T) {
	// A huge length prefix must fail without allocating.
	w := NewWriter(0)
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.Float64s(); got != nil {
		t.Errorf("Float64s on corrupt input = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Error("expected error for oversized length prefix")
	}
}

func TestFloat64sShortPayloadFailsFast(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1000) // claims 1000 doubles, provides none
	r := NewReader(w.Bytes())
	if got := r.Float64s(); got != nil {
		t.Errorf("want nil, got %d elements", len(got))
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestQuickFloat64sRoundtrip(t *testing.T) {
	f := func(vs []float64) bool {
		w := NewWriter(0)
		w.Float64s(vs)
		r := NewReader(w.Bytes())
		got := r.Float64s()
		if r.Err() != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			// NaN-safe comparison via bit patterns.
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundtrip(t *testing.T) {
	f := func(s string) bool {
		w := NewWriter(0)
		w.String(s)
		r := NewReader(w.Bytes())
		return r.String() == s && r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarintRoundtrip(t *testing.T) {
	f := func(v int64, u uint64) bool {
		w := NewWriter(0)
		w.Varint(v)
		w.Uvarint(u)
		r := NewReader(w.Bytes())
		return r.Varint() == v && r.Uvarint() == u && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInts32Roundtrip(t *testing.T) {
	f := func(vs []int32) bool {
		w := NewWriter(0)
		w.Ints32(vs)
		r := NewReader(w.Bytes())
		got := r.Ints32()
		if r.Err() != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(0)
	w.Uint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
}

// testMsg is a small message used to exercise the registry.
type testMsg struct {
	A int
	B string
	V []float64
}

const testKind Kind = 9999

func (m *testMsg) Kind() Kind { return testKind }
func (m *testMsg) Encode(w *Writer) {
	w.Int(m.A)
	w.String(m.B)
	w.Float64s(m.V)
}
func (m *testMsg) Decode(r *Reader) {
	m.A = r.Int()
	m.B = r.String()
	m.V = r.Float64s()
}

func testRegistry() *Registry {
	return NewRegistry([]RegistryEntry{
		{Kind: testKind, Name: "test", New: func() Message { return &testMsg{} }},
	})
}

func TestRegistryRoundtrip(t *testing.T) {
	reg := testRegistry()
	in := &testMsg{A: -5, B: "xyz", V: []float64{1, 2.5}}
	data := Marshal(in)
	out, err := reg.Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("wrong type %T", out)
	}
	if got.A != in.A || got.B != in.B || len(got.V) != 2 || got.V[1] != 2.5 {
		t.Errorf("roundtrip mismatch: %+v", got)
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	reg := testRegistry()
	w := NewWriter(0)
	w.Uint16(1234)
	if _, err := reg.Unmarshal(w.Bytes()); err == nil {
		t.Error("expected error for unknown kind")
	}
}

func TestRegistryTrailingBytes(t *testing.T) {
	reg := testRegistry()
	data := Marshal(&testMsg{})
	data = append(data, 0xff)
	if _, err := reg.Unmarshal(data); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("err = %v, want ErrTrailingBytes", err)
	}
}

// TestUnmarshalFromReusedReader: one Reader, Reset per frame, decodes a run of
// frames the way the TCP read loop does — a failed frame's sticky error and
// offset must not leak into the next.
func TestUnmarshalFromReusedReader(t *testing.T) {
	reg := testRegistry()
	good := Marshal(&testMsg{A: 7, B: "ok", V: []float64{3}})
	var rd Reader
	for i, frame := range [][]byte{good, good[:len(good)-1], append(append([]byte(nil), good...), 0), good} {
		rd.Reset(frame)
		m, err := reg.UnmarshalFrom(&rd)
		if wantErr := i == 1 || i == 2; (err != nil) != wantErr {
			t.Fatalf("frame %d: err = %v, want error %v", i, err, wantErr)
		}
		if err == nil && (m.(*testMsg).A != 7 || rd.Remaining() != 0) {
			t.Errorf("frame %d decoded as %+v with %d bytes left", i, m, rd.Remaining())
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate kind")
		}
	}()
	NewRegistry([]RegistryEntry{
		{Kind: 1, Name: "a", New: func() Message { return &testMsg{} }},
		{Kind: 1, Name: "b", New: func() Message { return &testMsg{} }},
	})
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	in := &testMsg{A: 7, B: "abc", V: make([]float64, 100)}
	if got, want := EncodedSize(in), len(Marshal(in)); got != want {
		t.Errorf("EncodedSize = %d, Marshal len = %d", got, want)
	}
}
