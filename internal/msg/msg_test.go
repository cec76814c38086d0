package msg

import (
	"bytes"
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
		&PushReq{Seq: 9, Iter: 4, PullVersion: 88, Dense: []float64{0.5, -0.5}},
		&PushReq{Seq: 10, Iter: 5, PullVersion: 89, IsSparse: true, SparseIdx: []int32{1, 7}, SparseVal: []float64{2, 3}},
		&PushAck{Seq: 9, Version: 101, Staleness: 13},
		&Notify{Iter: 6},
		&ReSync{Iter: 7},
		&Start{},
		&Stop{},
		&Release{Clock: 11},
		&WorkerReady{},
		&PushNotice{Iter: 2},
		&Heartbeat{Iter: 8},
		&SchedulerHello{Gen: 2},
		&StateReport{Iter: 12, Pushed: true, Clock: 12, Waiting: true, Degraded: true},
		&SchedulerBeacon{Gen: 3},
		&PullReqV2{Seq: 13, Have: -1},
		&PullRespV2{Seq: 13, Version: 9, Base: -1, Codec: 0, Payload: []byte{1, 2, 3}},
		&PushReqV2{Seq: 14, Iter: 5, PullVersion: 9, Codec: 1, Payload: []byte{4, 5}},
		&JoinReq{},
		&JoinAck{Epoch: 3, Lo: []int32{0, 12}, Hi: []int32{12, 24}, Srv: []int32{0, 2}, Clock: 7},
		&RoutingUpdate{Epoch: 4, Lo: []int32{0}, Hi: []int32{24}, Srv: []int32{1}},
		&ShardTransfer{Epoch: 4, HasNew: true, NewLo: 0, NewHi: 12, KeepLo: 0, KeepHi: 6, SendLo: []int32{12}, SendHi: []int32{24}, SendTo: []int32{1}, Expect: 1},
		&ShardTransfer{Epoch: 5, SendLo: []int32{0}, SendHi: []int32{8}, SendTo: []int32{2}},
		&ShardState{Epoch: 4, Lo: 6, Hi: 12, Version: 100, Codec: 0, Payload: []byte{9, 8, 7}},
		&MigrateDone{Epoch: 4, Bytes: 4096},
		&ScaleCmd{Op: ScaleRetireWorker, Node: 5, Servers: []int32{}},
		&ScaleCmd{Op: ScaleSetServers, Servers: []int32{0, 1, 3}},
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
		WrapJob(5, &PushReq{Seq: 3, Iter: 7, PullVersion: 10, Dense: []float64{1, 2, 3}}),
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
	if len(kinds) != 35 {
		t.Errorf("registry has %d kinds, want 35", len(kinds))
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

func TestQuickPushReqRoundtrip(t *testing.T) {
	reg := Registry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &PushReq{
			Seq:         rng.Uint64(),
			Iter:        rng.Int63(),
			PullVersion: rng.Int63(),
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
	// ShardState carries migrating parameter payloads, so it rides the data
	// path like pushes and pulls; the rest of the elastic protocol is control.
	data := []wire.Kind{KindPullReq, KindPullResp, KindPushReq, KindPushAck, KindShardState, KindReplApply}
	for _, k := range data {
		if IsControl(k) {
			t.Errorf("kind %d misclassified as control", k)
		}
	}
	control := []wire.Kind{KindNotify, KindReSync, KindStart, KindStop, KindRelease, KindWorkerReady, KindPushNotice, KindHeartbeat, KindJoinReq, KindJoinAck, KindRoutingUpdate, KindShardTransfer, KindMigrateDone, KindScaleCmd, KindLeaderAnnounce, KindVoteReq, KindVoteResp, KindReplState, KindSchemeSwitch, KindNotifyV2}
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
