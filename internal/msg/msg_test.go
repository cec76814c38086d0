package msg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"specsync/internal/wire"
)

// roundtrip marshals and unmarshals m through the registry and returns the
// decoded message.
func roundtrip(t *testing.T, m wire.Message) wire.Message {
	t.Helper()
	out, err := Registry().Unmarshal(wire.Marshal(m))
	if err != nil {
		t.Fatalf("roundtrip %T: %v", m, err)
	}
	return out
}

// populatedMessages returns at least one message of every registered kind
// with every field set (TestUnmarshalCopiesOut checks the coverage).
func populatedMessages() []wire.Message {
	return []wire.Message{
		&PullReq{Seq: 42},
		&PullResp{Seq: 7, Version: 100, Values: []float64{1, 2, 3}},
		&PullResp{Seq: 9, Version: 101, Values: []float64{}}, // a push's reply without the block
		&PushReq{Seq: 9, Iter: 4, PullVersion: 88, Dense: []float64{0.5, -0.5}},
		&PushReq{Seq: 10, Iter: 5, PullVersion: 89, IsSparse: true, SparseIdx: []int32{1, 7}, SparseVal: []float64{2, 3}},
		&PushReq{Seq: 11, Iter: 6, PullVersion: 90, Dense: []float64{1.5}, Pull: true},
		&PushReq{Seq: 12, Iter: 7, PullVersion: 91, IsSparse: true, SparseIdx: []int32{2}, SparseVal: []float64{-1}, Pull: true},
		&Notify{Iter: 6},
		&ReSync{Iter: 7},
		&Start{},
		&Stop{},
		&Release{Clock: 11},
		&WorkerReady{},
		&Heartbeat{Iter: 8},
		&SchedulerHello{Gen: 2},
		&StateReport{Iter: 12, Pushed: true, Clock: 12, Waiting: true},
		&StateReport{Iter: 3, Clock: 3}, // false flags must overwrite a recycled report's true ones
		&SchedulerBeacon{Gen: 3},
		&PullReqV2{Seq: 13, Have: -1},
		&PullRespV2{Seq: 13, Version: 9, Base: -1, Codec: 0, Payload: []byte{1, 2, 3}},
		&PushReqV2{Seq: 14, Iter: 5, PullVersion: 9, Codec: 1, Payload: []byte{4, 5}},
		&PushReqV2{Seq: 15, Iter: 6, PullVersion: 10, Codec: 2, Payload: []byte{6}, Pull: true},
		&JoinReq{},
		&JoinAck{Epoch: 3, Lo: []int32{0, 12}, Hi: []int32{12, 24}, Srv: []int32{0, 2}, Clock: 7},
		&LeaderAnnounce{Term: 2, Gen: 3},
		&VoteReq{Term: 2, Index: 17},
		&VoteResp{Term: 2, Granted: true},
		&ReplState{Term: 1, Index: 9, Snap: []byte{1, 2, 3, 4}},
		&ReplApply{Version: 55, Worker: 3, Iter: 12, Body: ReplBodySparse, Idx: []int32{1, 4}, Grad: []float64{0.5, -1}},
		&ReplApply{Version: 56, Worker: 0, Iter: 13, Body: ReplBodyDense, Dense: []float64{1, 2, 3}},
		&ReplApply{Version: 57, Worker: 1, Iter: 14, Body: ReplBodyCodec, Codec: 2, Payload: []byte{9, 9}},
		&SchemeSwitch{Epoch: 3, Bound: 4, Quorum: 0.7, Released: 12, Reason: "sustained-straggler", At: 5 * time.Second},
		&SchemeSwitch{Epoch: 4, Bound: -1, Quorum: 1, Released: 12, Reason: "handover", At: 6 * time.Second}, // the unbounded (ASP) gate
		&NotifyV2{Iter: 7, Span: 250 * time.Millisecond},
		&CloneCtl{StartIter: 41, Released: 40},
		&CloneNotice{Slot: 8, Target: 3},
	}
}

func TestAllMessagesRoundtrip(t *testing.T) {
	for _, in := range populatedMessages() {
		out := roundtrip(t, in)
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T: roundtrip mismatch:\n in: %+v\nout: %+v", in, in, out)
		}
	}
}

// TestUnmarshalCopiesOut pins the invariant transport.TCP's reused frame
// buffer rests on: a decoded message shares no memory with the bytes it was
// decoded from, for every kind on the wire.
func TestUnmarshalCopiesOut(t *testing.T) {
	reg := Registry()
	covered := make(map[wire.Kind]bool)
	for _, in := range populatedMessages() {
		covered[in.Kind()] = true
		want := wire.Marshal(in)
		src := bytes.Clone(want)
		out, err := reg.Unmarshal(src)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		for i := range src {
			src[i] = 0xFF
		}
		if !bytes.Equal(wire.Marshal(out), want) {
			t.Errorf("%T: decoded message changed when its source buffer was overwritten", in)
		}
	}
	for _, k := range reg.Kinds() {
		if !covered[k] {
			t.Errorf("kind %s has no populated sample", reg.Name(k))
		}
	}
}

func TestRegistryCoversAllKinds(t *testing.T) {
	reg := Registry()
	kinds := reg.Kinds()
	// The registered set, pinned: a retired kind that comes back, or a kind
	// that goes without its number being reserved, fails here.
	want := []wire.Kind{1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21,
		28, 29, 30, 31, 32, 33, 34, 35, 36}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("registry has kinds %v (%d), want %v (%d)", kinds, len(kinds), want, len(want))
	}
	for _, k := range kinds {
		m, err := reg.New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if m.Kind() != k {
			t.Errorf("kind %d: message reports kind %d", k, m.Kind())
		}
	}
}

// stray is a message of a kind the registry does not know.
type stray struct{ kind wire.Kind }

func (m *stray) Kind() wire.Kind       { return m.kind }
func (m *stray) Encode(w *wire.Writer) {}
func (m *stray) Decode(r *wire.Reader) {}

// TestRegistryRefusesUnregisteredKinds: kind 0, the reserved kinds, the kind
// just past the highest registered one and the largest kind each give an
// error from New and Unmarshal, a placeholder name, and a Recycle that does
// nothing — never a panic. Registry is built once and shared.
// retiredFrames are frames of the retired shard-migration and scale-command
// kinds (22-26) as an older peer encoded them. The registry refuses each, and
// FuzzDecodeRecycled keeps them in its seed corpus.
var retiredFrames = []string{
	"\x16\x00\b\x01\x00\x010\x01\x02",                            // RoutingUpdate
	"\x17\x00\b\x01\x00\x18\x00\f\x01\x18\x010\x01\x02\x02",      // ShardTransfer
	"\x17\x00\n\x00\x00\x00\x00\x00\x01\x00\x01\x10\x01\x04\x00", // ShardTransfer, draining
	"\x18\x00\b\f\x18\xc8\x01\x00\x03\t\b\a",                     // ShardState
	"\x19\x00\b\x80@",                                            // MigrateDone
	"\x1a\x00\x01\n\x00",                                         // ScaleCmd, retire
	"\x1a\x00\x02\x00\x03\x00\x02\x06",                           // ScaleCmd, set servers
}

func TestRegistryRefusesUnregisteredKinds(t *testing.T) {
	reg := Registry()
	if Registry() != reg {
		t.Error("Registry() built a second registry")
	}
	kinds := reg.Kinds()
	top := kinds[len(kinds)-1]
	for _, k := range []wire.Kind{0, 4, 9, 12, 22, 23, 24, 25, 26, 27, top + 1, 1000, 65535} {
		want := fmt.Sprintf("wire: unknown message kind %d", k)
		if m, err := reg.New(k); err == nil || err.Error() != want {
			t.Errorf("New(%d) = %v, %v; want error %q", k, m, err, want)
		}
		if m, err := reg.Unmarshal(wire.Marshal(&stray{kind: k})); err == nil || err.Error() != want {
			t.Errorf("Unmarshal of kind %d = %v, %v; want error %q", k, m, err, want)
		}
		if got, want := reg.Name(k), fmt.Sprintf("kind(%d)", k); got != want {
			t.Errorf("Name(%d) = %q, want %q", k, got, want)
		}
		reg.Recycle(&stray{kind: k})
	}
	for _, f := range retiredFrames {
		k := wire.Kind(f[0]) | wire.Kind(f[1])<<8
		want := fmt.Sprintf("wire: unknown message kind %d", k)
		if m, err := reg.Unmarshal([]byte(f)); err == nil || err.Error() != want {
			t.Errorf("Unmarshal of a retired kind-%d frame = %v, %v; want error %q", k, m, err, want)
		}
	}
}

func TestQuickPushReqRoundtrip(t *testing.T) {
	reg := Registry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &PushReq{
			Seq:         rng.Uint64(),
			Iter:        rng.Int63(),
			PullVersion: rng.Int63(),
			Pull:        rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			in.Dense = make([]float64, rng.Intn(50))
			for i := range in.Dense {
				in.Dense[i] = rng.NormFloat64()
			}
		} else {
			in.IsSparse = true
			n := rng.Intn(20)
			in.SparseIdx = make([]int32, n)
			in.SparseVal = make([]float64, n)
			for i := 0; i < n; i++ {
				in.SparseIdx[i] = rng.Int31()
				in.SparseVal[i] = rng.NormFloat64()
			}
		}
		out, err := reg.Unmarshal(wire.Marshal(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPushReqSparseView(t *testing.T) {
	m := &PushReq{IsSparse: true, SparseIdx: []int32{3, 5}, SparseVal: []float64{1, 2}}
	sv := m.Sparse()
	if sv.Len() != 2 || sv.Idx[1] != 5 || sv.Val[1] != 2 {
		t.Errorf("Sparse view wrong: %+v", sv)
	}
}

func TestIsControlClassification(t *testing.T) {
	// ReplApply carries replicated push payloads, so it rides the data path
	// like pushes and pulls; the membership messages are control.
	data := []wire.Kind{KindPullReq, KindPullResp, KindPushReq, KindReplApply}
	for _, k := range data {
		if IsControl(k) {
			t.Errorf("kind %d misclassified as control", k)
		}
	}
	control := []wire.Kind{KindNotify, KindReSync, KindStart, KindStop, KindRelease, KindWorkerReady, KindHeartbeat, KindJoinReq, KindJoinAck, KindLeaderAnnounce, KindVoteReq, KindVoteResp, KindReplState, KindSchemeSwitch, KindNotifyV2}
	for _, k := range control {
		if !IsControl(k) {
			t.Errorf("kind %d misclassified as data", k)
		}
	}
}

func TestControlMessagesAreTiny(t *testing.T) {
	// The paper's centralized design relies on control messages being a few
	// bytes; regression-guard their encoded sizes.
	small := []wire.Message{&Notify{Iter: 1 << 40}, &ReSync{Iter: 1 << 40}, &Start{}, &Stop{}, &Release{Clock: 99}, &Heartbeat{Iter: 1 << 40}, &NotifyV2{Iter: 1 << 40, Span: time.Hour}}
	for _, m := range small {
		if n := wire.EncodedSize(m); n > 16 {
			t.Errorf("%T encodes to %d bytes, want <= 16", m, n)
		}
	}
}

// TestPushReqFlagsByteNeutral: the flags byte sits where PushReq's sparse
// bool was, so an encoding with only bit 0 in use (dense 0, sparse 1) decodes
// to the same message and re-encodes to the same bytes.
func TestPushReqFlagsByteNeutral(t *testing.T) {
	for _, want := range []*PushReq{
		{Seq: 3, Iter: 4, PullVersion: 5, Dense: []float64{1, -2}},
		{Seq: 6, Iter: 7, PullVersion: 8, IsSparse: true, SparseIdx: []int32{0, 9}, SparseVal: []float64{0.5, 3}},
	} {
		var w wire.Writer
		w.Uint16(uint16(KindPushReq))
		w.Uint64(want.Seq)
		w.Varint(want.Iter)
		w.Varint(want.PullVersion)
		w.Bool(want.IsSparse)
		if want.IsSparse {
			w.Ints32(want.SparseIdx)
			w.Float64s(want.SparseVal)
		} else {
			w.Float64s(want.Dense)
		}
		got, err := Registry().Unmarshal(w.Bytes())
		if err != nil {
			t.Fatalf("sparse=%v: %v", want.IsSparse, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %+v, want %+v", got, want)
		}
		if !bytes.Equal(wire.Marshal(want), w.Bytes()) {
			t.Errorf("sparse=%v: encoding moved", want.IsSparse)
		}
	}
}

// TestPushFlagsRejectUnknownBits: a push whose flags byte sets a bit this
// build does not define fails to decode, so the frame is dropped like any
// malformed one. PushReqV2 has no sparse form, so its bit 0 is unknown too.
func TestPushFlagsRejectUnknownBits(t *testing.T) {
	reg := Registry()
	for _, tc := range []struct {
		m     wire.Message
		flags func([]byte) *byte // the flags byte inside the frame
		bits  []byte
	}{
		{&PushReq{Seq: 1, Dense: []float64{2}}, func(b []byte) *byte { return &b[2+8+1+1] }, []byte{1 << 2, 1 << 7, 0xFC}},
		{&PushReqV2{Seq: 1, Payload: []byte{3}}, func(b []byte) *byte { return &b[len(b)-1] }, []byte{1, 1 << 2, 0xFF}},
	} {
		for _, bad := range tc.bits {
			frame := wire.Marshal(tc.m)
			*tc.flags(frame) = bad
			if _, err := reg.Unmarshal(frame); err == nil {
				t.Errorf("%T with flags %#x decoded", tc.m, bad)
			}
		}
		if _, err := reg.Unmarshal(wire.Marshal(tc.m)); err != nil {
			t.Errorf("%T: %v", tc.m, err)
		}
	}
}
