package msg

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"specsync/internal/wire"
)

// freshLike returns a zero message of m's type that never saw a pool.
func freshLike(m wire.Message) wire.Message {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(wire.Message)
}

// decodeInto decodes a kind-prefixed frame into m the way
// Registry.UnmarshalFrom does, minus the registry: m is the test's to choose.
func decodeInto(m wire.Message, frame []byte) bool {
	r := wire.NewReader(frame)
	if wire.Kind(r.Uint16()) != m.Kind() {
		return false
	}
	m.Decode(r)
	return r.Err() == nil && r.Remaining() == 0
}

// TestDecodeIntoRecycledEqualsFresh: for every pooled kind, a message that
// already held other frames decodes the next one to exactly what a fresh
// message decodes it to — across dense/sparse flips, shrinking and empty
// slices, and a failed decode in between. That is what makes recycling
// invisible to handlers, digests and DeepEqual-based tests.
func TestDecodeIntoRecycledEqualsFresh(t *testing.T) {
	sequences := map[string][]wire.Message{
		"PullResp": {
			&PullResp{Seq: 1, Version: 2, Values: []float64{1, 2, 3, 4, 5}},
			&PullResp{Seq: 2, Version: 3, Values: []float64{6, 7}},
			&PullResp{Seq: 3, Version: 4, Values: []float64{}},
			nil, // a truncated frame
			&PullResp{Seq: 5, Version: 5, Values: []float64{}},
			&PullResp{Seq: 4, Version: 5, Values: []float64{8, 9, 10}},
		},
		"PushReq": {
			&PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: []float64{1, 2, 3, 4}},
			&PushReq{Seq: 2, Iter: 2, PullVersion: 2, IsSparse: true, SparseIdx: []int32{0, 3}, SparseVal: []float64{5, 6}},
			&PushReq{Seq: 3, Iter: 3, PullVersion: 3, Dense: []float64{7, 8, 9, 10, 11, 12}, Pull: true},
			&PushReq{Seq: 4, Iter: 4, PullVersion: 4, Dense: []float64{13}},
			&PushReq{Seq: 5, Iter: 5, PullVersion: 5, Dense: []float64{}},
			nil,
			&PushReq{Seq: 6, Iter: 6, PullVersion: 6, IsSparse: true, SparseIdx: []int32{}, SparseVal: []float64{}},
			&PushReq{Seq: 7, Iter: 7, PullVersion: 7, Dense: []float64{14, 15}},
		},
		"PullRespV2": {
			&PullRespV2{Seq: 1, Version: 2, Base: -1, Codec: 0, Payload: []byte{1, 2, 3, 4}},
			&PullRespV2{Seq: 2, Version: 3, Base: 2, Codec: 3, Payload: []byte{5}},
			&PullRespV2{Seq: 3, Version: 4, Base: 3, Codec: 3, Payload: []byte{}},
			nil,
			&PullRespV2{Seq: 4, Version: 5, Base: -1, Codec: 0, Payload: []byte{6, 7, 8}},
		},
		"PushReqV2": {
			&PushReqV2{Seq: 1, Iter: 1, PullVersion: 1, Codec: 1, Payload: []byte{1, 2, 3, 4}},
			&PushReqV2{Seq: 2, Iter: 2, PullVersion: 2, Codec: 2, Payload: []byte{5}, Pull: true},
			&PushReqV2{Seq: 3, Iter: 3, PullVersion: 3, Codec: 2, Payload: []byte{}},
			nil,
			&PushReqV2{Seq: 4, Iter: 4, PullVersion: 4, Codec: 1, Payload: []byte{6, 7, 8}},
		},
	}
	for name, seq := range sequences {
		reused := freshLike(seq[0])
		var last []byte
		for i, in := range seq {
			if in == nil {
				if decodeInto(reused, last[:len(last)-1]) {
					t.Fatalf("%s step %d: truncated frame decoded", name, i)
				}
				continue
			}
			last = wire.Marshal(in)
			fresh := freshLike(in)
			if !decodeInto(fresh, last) || !decodeInto(reused, last) {
				t.Fatalf("%s step %d: decode failed", name, i)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("%s step %d: recycled message decoded to\n %+v\nfresh to\n %+v", name, i, reused, fresh)
			}
			if !reflect.DeepEqual(fresh, in) {
				t.Errorf("%s step %d: roundtrip changed the message: %+v != %+v", name, i, fresh, in)
			}
		}
	}
}

// FuzzDecodeRecycled checks the same property on arbitrary bytes: whatever a
// message decoded (or failed to decode) before, the next frame decodes into
// it exactly as into a fresh one, and fails exactly when the fresh one does.
func FuzzDecodeRecycled(f *testing.F) {
	samples := populatedMessages()
	for i, m := range samples {
		f.Add(wire.Marshal(samples[(i+1)%len(samples)]), wire.Marshal(m))
		f.Add(wire.Marshal(m)[:2], wire.Marshal(m))
	}
	for _, fr := range retiredFrames {
		f.Add([]byte(fr), []byte(fr))
		f.Add([]byte(fr)[:2], []byte(fr))
	}
	reg := Registry()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(b) < 2 {
			return
		}
		proto, err := reg.New(wire.Kind(uint16(b[0]) | uint16(b[1])<<8))
		if err != nil {
			return
		}
		reused, fresh := freshLike(proto), freshLike(proto)
		if len(a) >= 2 {
			decodeInto(reused, append(b[:2:2], a[2:]...)) // same kind, any body
		}
		okFresh, okReused := decodeInto(fresh, b), decodeInto(reused, b)
		if okFresh != okReused {
			t.Fatalf("fresh decode ok=%v, recycled decode ok=%v", okFresh, okReused)
		}
		// Bytes, not DeepEqual: payloads may hold NaNs.
		if okFresh && string(wire.Marshal(reused)) != string(wire.Marshal(fresh)) {
			t.Fatalf("recycled message decoded to %+v, fresh to %+v", reused, fresh)
		}
	})
}

// dataBlock is one shard's block on the dense ledger workload: 64 KiB.
func dataBlock() []float64 {
	vs := make([]float64, 8192)
	for i := range vs {
		vs[i] = float64(i) * 0.25
	}
	return vs
}

// TestDecodeIntoRecycledAllocatesNothing: once a message has held a block,
// decoding the next block of that size into it costs no allocation at all.
func TestDecodeIntoRecycledAllocatesNothing(t *testing.T) {
	for _, in := range []wire.Message{
		&PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: dataBlock()},
		&PullResp{Seq: 1, Version: 1, Values: dataBlock()},
	} {
		frame := wire.Marshal(in)
		m := freshLike(in)
		var r wire.Reader
		decode := func() {
			r.Reset(frame[2:])
			m.Decode(&r)
		}
		decode()
		if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
			t.Errorf("%T: %.1f allocs per decode into a recycled message, want 0", in, allocs)
		}
		if err := r.Err(); err != nil || !reflect.DeepEqual(m, in) {
			t.Errorf("%T: decoded wrongly (err %v)", in, err)
		}
	}
}

// TestPushReqMarshalAllocatesOnlyTheFrame: marshalling a dense push through
// the writer pool allocates one object, the frame it returns. The pin reads
// the fast quartile of 51 marshals: under the race detector sync.Pool drops
// one Put in four, and the next marshal pays for a fresh writer.
func TestPushReqMarshalAllocatesOnlyTheFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pool once
	m := &PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: dataBlock()}
	wire.Marshal(m) // the pool now holds a writer that has held a block
	costs := make([]uint64, 51)
	var before, after runtime.MemStats
	for i := range costs {
		runtime.ReadMemStats(&before)
		wire.Marshal(m)
		runtime.ReadMemStats(&after)
		costs[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(costs)
	if per := costs[len(costs)/4]; per > 1 {
		t.Errorf("PushReq marshal allocates %d objects, want 1 (the returned frame)", per)
	}
}

// BenchmarkPushReqDecodeRecycled is the server's side of one dense push: a
// 64 KiB PushReq drawn from the pool, decoded, and handed back.
func BenchmarkPushReqDecodeRecycled(b *testing.B) {
	reg := Registry()
	frame := wire.Marshal(&PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: dataBlock()})
	var r wire.Reader
	decode := func() {
		r.Reset(frame)
		m, err := reg.UnmarshalFrom(&r)
		if err != nil {
			b.Fatal(err)
		}
		if d := m.(*PushReq).Dense; math.IsNaN(d[len(d)-1]) {
			b.Fatal("decoded a poisoned block")
		}
		reg.Recycle(m)
	}
	decode() // the pool now holds a message that has held a block
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}
