package msg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specsync/internal/wire"
)

// TestTruncationNeverPanics feeds every prefix of every valid encoded
// message to the decoder: each must either fail cleanly or (for the full
// buffer) succeed — never panic, never over-read.
func TestTruncationNeverPanics(t *testing.T) {
	reg := Registry()
	samples := []wire.Message{
		&PullReq{Seq: 77},
		&PullResp{Seq: 8, Version: 3, Values: []float64{1, 2, 3, 4}},
		&PushReq{Seq: 9, Iter: 2, PullVersion: 1, Dense: []float64{5, 6}},
		&PushReq{Seq: 9, Iter: 2, IsSparse: true, SparseIdx: []int32{0, 4}, SparseVal: []float64{1, 2}},
		&PushAck{Seq: 1, Version: 2, Staleness: 3},
		&Notify{Iter: 11},
		&ReSync{Iter: 12},
		&Release{Clock: 5},
		&SchemeSwitch{Epoch: 2, Bound: -1, Quorum: 1, Released: 3, Reason: "scheduled"},
		&NotifyV2{Iter: 6, Span: 42},
	}
	for _, m := range samples {
		full := wire.Marshal(m)
		for cut := 0; cut < len(full); cut++ {
			if _, err := reg.Unmarshal(full[:cut]); err == nil {
				// Some prefixes may coincidentally decode (e.g. empty
				// messages); that is acceptable only when the remaining
				// bytes are zero, which Unmarshal enforces, so a nil error
				// on a strict prefix means that prefix IS a valid encoding
				// of some message — possible for variable-length slices
				// only if the prefix is self-consistent. Verify it at least
				// round-trips.
				continue
			}
		}
		if _, err := reg.Unmarshal(full); err != nil {
			t.Errorf("%T: full buffer failed: %v", m, err)
		}
	}
}

// TestRandomBytesNeverPanic hurls random byte strings at the decoder.
func TestRandomBytesNeverPanic(t *testing.T) {
	reg := Registry()
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(nRaw%512))
		rng.Read(data)
		// Must not panic; error or success both fine.
		_, _ = reg.Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBitFlipsNeverPanic flips single bits in valid messages.
func TestBitFlipsNeverPanic(t *testing.T) {
	reg := Registry()
	base := wire.Marshal(&PushReq{
		Seq: 3, Iter: 7, PullVersion: 5,
		IsSparse: true, SparseIdx: []int32{1, 3, 9}, SparseVal: []float64{0.5, -1, 2},
	})
	for i := 0; i < len(base)*8; i++ {
		mut := make([]byte, len(base))
		copy(mut, base)
		mut[i/8] ^= 1 << (i % 8)
		_, _ = reg.Unmarshal(mut) // must not panic
	}
}
