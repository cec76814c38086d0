package ps

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

const fuzzDim = 16

// fuzzShard builds a fresh shard over fuzzDim values and an optimizer
// configured like its own, for the oracle.
func fuzzShard(tb testing.TB, momentum float64) (*Server, *optimizer.SGD, tensor.Vec) {
	tb.Helper()
	newOpt := func() *optimizer.SGD {
		o, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.1), Momentum: momentum, Clip: 3}, fuzzDim)
		if err != nil {
			tb.Fatal(err)
		}
		return o
	}
	init := tensor.NewVec(fuzzDim)
	for i := range init {
		init[i] = float64(i%5) - 2
	}
	init[3] = math.Copysign(0, -1)
	srv, err := New(Config{Range: Range{Lo: 0, Hi: fuzzDim}, Init: init, Optimizer: newOpt()})
	if err != nil {
		tb.Fatal(err)
	}
	srv.Init(discardCtx{})
	return srv, newOpt(), init
}

func paramBits(v tensor.Vec) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// FuzzServerPush hands a shard one push from the network: a PushReqV2 payload
// under any codec ID, or a PushReq body, from a known worker, a worker the
// shard has never seen (of an index no run has), or a node that is no worker
// at all. The shard must not
// panic, must allocate no more than the payload accounts for, and must leave
// its parameters untouched whenever it refuses the push. A codec push it
// accepts must leave the parameters bit-equal to a dense decode of the payload
// applied by ApplyDense, and a raw, top-k or q8 payload is accepted exactly
// when that dense decode accepts it.
func FuzzServerPush(f *testing.F) {
	block := []float64{3, -1, 0, 2, math.Inf(-1), 0.5, -7, 1e-300, 4, 4, -4, 0, 0, 1, 2, 3}
	for _, c := range []codec.Codec{codec.Raw{}, codec.TopK{Frac: 0.25}, codec.Q8{Block: 4}, codec.Delta{}} {
		f.Add(codec.EncodePayload(c, block, nil, nil, nil), uint8(c.ID()), uint8(0), uint8(0))
	}
	// A top-k push asking for the block, from worker 1<<30.
	f.Add(codec.EncodePayload(codec.TopK{Frac: 0.25}, block, nil, nil, nil), uint8(codec.IDTopK), uint8(3), uint8(4))
	// A top-k payload listing index 2 twice.
	repeated := binary.AppendUvarint(nil, fuzzDim)
	repeated = append(repeated, 2, 2, 0)
	repeated = binary.LittleEndian.AppendUint64(repeated, math.Float64bits(1.5))
	repeated = binary.LittleEndian.AppendUint64(repeated, math.Float64bits(2.5))
	f.Add(repeated, uint8(codec.IDTopK), uint8(1), uint8(0))
	for _, req := range []*msg.PushReq{
		{Seq: 1, Iter: 1, Dense: block},
		{Seq: 1, Iter: 1, IsSparse: true, SparseIdx: []int32{0, 5, 15}, SparseVal: []float64{1, -2, 3}},
		{Seq: 1, Iter: 1, IsSparse: true, SparseIdx: []int32{5, 5}, SparseVal: []float64{1, 2}},
	} {
		w := wire.NewWriter(64)
		req.Encode(w)
		f.Add(slices.Clone(w.Bytes()), uint8(0), uint8(1), uint8(1))
	}
	senders := []node.ID{node.WorkerID(0), node.WorkerID(7), node.ID("intruder"), node.WorkerID(1 << 30)}
	f.Fuzz(func(t *testing.T, body []byte, id, sender, flags uint8) {
		var req wire.Message
		if flags&1 == 0 {
			req = &msg.PushReqV2{Seq: 1, Iter: 1, Codec: id % 6, Payload: body, Pull: flags&4 != 0}
		} else {
			v1 := new(msg.PushReq)
			r := wire.NewReader(body)
			if v1.Decode(r); r.Err() != nil {
				return // the runtime drops a frame that does not decode
			}
			req = v1
		}
		// The heap counters are the process's, and the fuzzing engine
		// allocates beside the push: the push's own cost is the least of
		// three pushes to fresh shards.
		var srv *Server
		var oracle *optimizer.SGD
		var init tensor.Vec
		least := uint64(math.MaxUint64)
		for range 3 {
			srv, oracle, init = fuzzShard(t, float64(flags>>1&1)*0.9)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			srv.Receive(senders[int(sender)%len(senders)], req)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 1024+16*uint64(len(body)) {
			t.Fatalf("one push of %d bytes allocated %d bytes", len(body), least)
		}

		accepted := srv.Version() == 1
		if !accepted && !slices.Equal(paramBits(srv.Params()), paramBits(init)) {
			t.Fatalf("refused push changed the parameters: %v", srv.Params())
		}
		v2, ok := req.(*msg.PushReqV2)
		if !ok || codec.ID(v2.Codec) == codec.IDDelta {
			return
		}
		dense := tensor.NewVec(fuzzDim)
		err := codec.DecodePayload(codec.ID(v2.Codec), body, dense)
		if accepted != (err == nil) {
			t.Fatalf("codec %d: shard accepted %v, dense decode error %v", v2.Codec, accepted, err)
		}
		if !accepted {
			return
		}
		want := init.Clone()
		oracle.ApplyDense(want, dense)
		if !slices.Equal(paramBits(srv.Params()), paramBits(want)) {
			t.Fatalf("codec %d: parameters %v, dense decode and ApplyDense give %v", v2.Codec, srv.Params(), want)
		}
	})
}
