package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/node"
	"specsync/internal/wire"
)

func roundTrip(t *testing.T, c Codec, vals, base []float64, rng *rand.Rand) (dst, recon []float64, payload []byte) {
	t.Helper()
	// Debited from zero, each entry ends up as minus its reconstruction.
	debit := make([]float64, len(vals))
	payload = EncodePayload(c, vals, base, debit, rng)
	recon = make([]float64, len(vals))
	for i, d := range debit {
		recon[i] = -d
	}
	dst = make([]float64, len(vals))
	if base != nil {
		copy(dst, base)
	}
	if err := DecodePayload(c.ID(), payload, dst); err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	return dst, recon, payload
}

func TestRawRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, -0.001, 42}
	dst, recon, _ := roundTrip(t, Raw{}, vals, nil, nil)
	for i := range vals {
		if dst[i] != vals[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], vals[i])
		}
		if recon[i] != vals[i] {
			t.Errorf("recon[%d] = %g, want %g", i, recon[i], vals[i])
		}
	}
}

func TestTopKRoundTrip(t *testing.T) {
	vals := []float64{0.1, -5, 0.02, 3, -0.5, 0.004, 2.5, -1}
	c := TopK{Frac: 0.5} // keeps 4 of 8
	dst, recon, _ := roundTrip(t, c, vals, nil, nil)

	// Largest-magnitude 4 entries: -5 (1), 3 (3), 2.5 (6), -1 (7).
	want := []float64{0, -5, 0, 3, 0, 0, 2.5, -1}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
		if recon[i] != want[i] {
			t.Errorf("recon[%d] = %g, want %g", i, recon[i], want[i])
		}
	}
}

func TestTopKTieBreaksTowardLowerIndex(t *testing.T) {
	vals := []float64{1, -1, 1, -1}
	dst, _, _ := roundTrip(t, TopK{Frac: 0.5}, vals, nil, nil)
	want := []float64{1, -1, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestTopKKeepsAtLeastOne(t *testing.T) {
	vals := []float64{0.5, 2, -1}
	dst, _, _ := roundTrip(t, TopK{Frac: 0.0001}, vals, nil, nil)
	want := []float64{0, 2, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestQ8ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.3
	}
	for _, useRNG := range []bool{true, false} {
		var encRNG *rand.Rand
		if useRNG {
			encRNG = rand.New(rand.NewSource(5))
		}
		c := Q8{Block: 64}
		dst, recon, payload := roundTrip(t, c, vals, nil, encRNG)
		// Per-block worst-case error is one quantum: scale/127 where scale is
		// the block's max magnitude.
		for lo := 0; lo < len(vals); lo += 64 {
			hi := lo + 64
			if hi > len(vals) {
				hi = len(vals)
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
					t.Fatalf("rng=%v dst[%d]: error %g exceeds quantum %g", useRNG, i, err, quantum)
				}
				if dst[i] != recon[i] {
					t.Fatalf("rng=%v recon[%d] = %g, decode produced %g", useRNG, i, recon[i], dst[i])
				}
			}
		}
		// 1000 float64s dense = 8000 bytes; q8 ≈ 1 byte/value + scales.
		if len(payload) >= 4000 {
			t.Errorf("rng=%v q8 payload %d bytes, expected well under dense 8000", useRNG, len(payload))
		}
	}
}

func TestQ8ZeroBlockIsExact(t *testing.T) {
	vals := make([]float64, 10) // all zero → scale 0 → exact zeros back
	dst, _, _ := roundTrip(t, Q8{Block: 4}, vals, nil, rand.New(rand.NewSource(1)))
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %g, want 0", i, v)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	vals := []float64{1, 2.5, 3, 4, -5}
	dst, recon, payload := roundTrip(t, Delta{}, vals, base, nil)
	for i := range vals {
		if dst[i] != vals[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], vals[i])
		}
		if recon[i] != vals[i] {
			t.Errorf("recon[%d] = %g, want %g", i, recon[i], vals[i])
		}
	}
	full := EncodePayload(Delta{}, vals, nil, nil, nil)
	if len(payload) >= len(full) {
		t.Errorf("2-entry delta payload %d bytes, full resend %d; expected smaller", len(payload), len(full))
	}
}

func TestDeltaNilBaseIsFullResend(t *testing.T) {
	vals := []float64{7, -8, 9}
	payload := EncodePayload(Delta{}, vals, nil, nil, nil)
	dst := make([]float64, len(vals)) // zeros, not base: every entry must be listed
	if err := DecodePayload(IDDelta, payload, dst); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range vals {
		if dst[i] != vals[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], vals[i])
		}
	}
}

func TestDecodePayloadRejectsBadInput(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	for _, c := range []Codec{Raw{}, TopK{Frac: 0.5}, Q8{Block: 2}, Delta{}} {
		payload := EncodePayload(c, vals, nil, nil, nil)
		dst := make([]float64, len(vals))

		// Wrong destination length.
		if err := DecodePayload(c.ID(), payload, make([]float64, 3)); err == nil {
			t.Errorf("%s: accepted payload with mismatched dst length", c.Name())
		}
		// Truncation.
		if err := DecodePayload(c.ID(), payload[:len(payload)-1], dst); err == nil {
			t.Errorf("%s: accepted truncated payload", c.Name())
		}
		// Trailing bytes.
		if err := DecodePayload(c.ID(), append(append([]byte{}, payload...), 0), dst); err == nil {
			t.Errorf("%s: accepted payload with trailing byte", c.Name())
		}
	}
	if err := DecodePayload(ID(200), []byte{1}, nil); err == nil {
		t.Error("accepted unknown codec id")
	}
}

func TestIDString(t *testing.T) {
	cases := map[ID]string{IDRaw: "raw", IDTopK: "topk", IDQ8: "q8", IDDelta: "delta", ID(9): "codec(9)"}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("ID(%d).String() = %q, want %q", uint8(id), got, want)
		}
	}
}

func TestConfigBuild(t *testing.T) {
	cases := []struct {
		cfg       Config
		wantPush  ID
		wantDelta bool
		wantErr   bool
	}{
		{Config{}, IDRaw, false, false},
		{Config{Name: "raw"}, IDRaw, false, false},
		{Config{Name: "topk", TopKFrac: 0.2}, IDTopK, false, false},
		{Config{Name: "q8", Q8Block: 128}, IDQ8, false, false},
		{Config{Name: "delta"}, IDRaw, true, false},
		{Config{Name: "zstd"}, IDRaw, false, true},
		{Config{Name: "topk", TopKFrac: 1.5}, IDRaw, false, true},
		{Config{Name: "q8", Q8Block: -1}, IDRaw, false, true},
	}
	for _, tc := range cases {
		push, deltaPull, err := Build(tc.cfg)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Build(%+v): expected error", tc.cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("Build(%+v): %v", tc.cfg, err)
			continue
		}
		if deltaPull != tc.wantDelta {
			t.Errorf("Build(%+v): deltaPull = %v, want %v", tc.cfg, deltaPull, tc.wantDelta)
		}
		gotPush := IDRaw
		if push != nil {
			gotPush = push.ID()
		}
		if gotPush != tc.wantPush {
			t.Errorf("Build(%+v): push codec %s, want %s", tc.cfg, gotPush, tc.wantPush)
		}
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	st := NewState([]int{3, 5})
	st.Residuals[0][1] = 1.25
	st.Residuals[1][4] = -9.5
	got, err := RestoreState(st.Snapshot())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !got.Matches([]int{3, 5}) {
		t.Fatal("restored state shape mismatch")
	}
	for i, block := range st.Residuals {
		for j, v := range block {
			if got.Residuals[i][j] != v {
				t.Errorf("residual[%d][%d] = %g, want %g", i, j, got.Residuals[i][j], v)
			}
		}
	}
	if !st.Matches([]int{3, 5}) || st.Matches([]int{3, 4}) || st.Matches([]int{3}) {
		t.Error("Matches misreports shapes")
	}
}

func TestRestoreStateRejectsCorruption(t *testing.T) {
	good := NewState([]int{2}).Snapshot()
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF // wrong magic
	if _, err := RestoreState(bad); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := RestoreState(good[:len(good)-3]); err == nil {
		t.Error("accepted truncated snapshot")
	}
	if _, err := RestoreState(append(append([]byte{}, good...), 7)); err == nil {
		t.Error("accepted trailing bytes")
	}
}

// lyingStateHeader is an 8-byte state file — magic, version, and a shard
// count of 2^20 with no shards behind it.
func lyingStateHeader() []byte {
	p := binary.LittleEndian.AppendUint32(nil, stateMagic)
	p = append(p, stateVersion)
	return binary.AppendUvarint(p, 1<<20)
}

// TestRestoreStateLyingShardCountIsRefused: every shard takes at least one
// byte, so a count beyond the bytes left is refused before the shard table is
// allocated; without that bound eight bytes buy a 25 MB table. The pin takes
// the fast quartile of 51 refusals on one P, as wire's
// TestInts32LyingLengthIsRefused does.
func TestRestoreStateLyingShardCountIsRefused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := lyingStateHeader()
	if len(data) != 8 {
		t.Fatalf("header is %d bytes, want 8", len(data))
	}
	allocs := make([]uint64, 51)
	var before, after runtime.MemStats
	for i := range allocs {
		runtime.ReadMemStats(&before)
		st, err := RestoreState(data)
		runtime.ReadMemStats(&after)
		if st != nil || err == nil {
			t.Fatalf("RestoreState accepted a 2^20-shard header with no shards")
		}
		allocs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(allocs)
	if n := allocs[len(allocs)/4]; n >= 64<<10 {
		t.Errorf("refusing the header allocated %d bytes, want < 64 KiB", n)
	}
}

// TestRestoreStateRefusesNonCanonical: a state file that decodes but is not
// what Snapshot writes (here an overlong shard-length varint) is refused.
func TestRestoreStateRefusesNonCanonical(t *testing.T) {
	good := NewState([]int{0}).Snapshot()
	// The one shard's length prefix is the last byte, 0x00; 0x80 0x00 decodes
	// to the same zero.
	overlong := append(append([]byte{}, good[:len(good)-1]...), 0x80, 0x00)
	if _, err := RestoreState(overlong); err == nil {
		t.Error("accepted an overlong varint")
	}
}

func TestStatsAccounting(t *testing.T) {
	labels := map[wire.Kind]string{wire.Kind(19): "topk", wire.Kind(18): "raw"}
	s := NewStats(func(k wire.Kind) string {
		if l, ok := labels[k]; ok {
			return l
		}
		return "none"
	})
	if rows := s.Rows(func(k wire.Kind) string { return "" }); len(rows) != 0 {
		t.Errorf("unbound Stats has wire rows %v", rows)
	}
	rec := s.Tap(metrics.NewTransfer(nil))
	rec.RecordTransfer(node.WorkerID(0), node.ServerID(0), wire.Kind(19), 100, time.Time{})
	rec.RecordTransfer(node.WorkerID(0), node.ServerID(0), wire.Kind(19), 50, time.Time{})
	rec.RecordTransfer(node.ServerID(0), node.WorkerID(0), wire.Kind(18), 800, time.Time{})
	rec.RecordTransfer(node.WorkerID(0), node.ServerID(0), wire.Kind(5), 10, time.Time{})

	if b, m := s.KindBytes(wire.Kind(19), "topk"); b != 150 || m != 2 {
		t.Errorf("KindBytes(19,topk) = %d,%d; want 150,2", b, m)
	}
	if b, m := s.KindBytes(wire.Kind(19), "raw"); b != 0 || m != 0 {
		t.Errorf("KindBytes(19,raw) = %d,%d; kind 19 is labeled topk", b, m)
	}
	if got := s.LabelBytes("raw"); got != 800 {
		t.Errorf("LabelBytes(raw) = %d, want 800", got)
	}

	s.RecordEncode(IDTopK, 8000, 1200)
	s.RecordEncode(IDTopK, 8000, 800)
	if r := s.Ratio(IDTopK); math.Abs(r-0.125) > 1e-12 {
		t.Errorf("Ratio(topk) = %g, want 0.125", r)
	}
	if r := s.Ratio(IDQ8); r != 1 {
		t.Errorf("Ratio(q8) with no encodes = %g, want 1", r)
	}
	raw, enc, blocks := s.EncodeTotals(IDTopK)
	if raw != 16000 || enc != 2000 || blocks != 2 {
		t.Errorf("EncodeTotals(topk) = %d,%d,%d; want 16000,2000,2", raw, enc, blocks)
	}

	var sb strings.Builder
	s.WritePrometheus(&sb, func(k wire.Kind) string { return fmt.Sprintf("kind%d", k) })
	out := sb.String()
	for _, want := range []string{
		`specsync_bytes_on_wire_total{kind="kind19",codec="topk"} 150`,
		`specsync_codec_msgs_total{kind="kind18",codec="raw"} 1`,
		`specsync_codec_compression_ratio{codec="topk"} 0.125`,
		`specsync_codec_encoded_bytes_total{codec="topk"} 2000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\ngot:\n%s", want, out)
		}
	}
}

// TestEncodeEntriesDecodes: a payload listing some entries of vals, decoded
// over a base, gives vals at those entries and the base everywhere else, for
// none, some and all of them, index gaps of one and of two uvarint bytes
// included.
func TestEncodeEntriesDecodes(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	vals[7] = math.Copysign(0, -1)
	for _, idx := range [][]int32{{}, {0}, {2, 7, 299}, {1, 129, 130, 299}} {
		base := make([]float64, len(vals))
		w := wire.NewWriter(0)
		EncodeEntries(w, vals, idx)
		if err := DecodePayload(IDDelta, w.Bytes(), base); err != nil {
			t.Fatalf("entries %v: %v", idx, err)
		}
		for i := range base {
			want := 0.0
			if slices.Contains(idx, int32(i)) {
				want = vals[i]
			}
			if math.Float64bits(base[i]) != math.Float64bits(want) {
				t.Fatalf("entries %v: value %d decodes to %v, want %v", idx, i, base[i], want)
			}
		}
	}
}
