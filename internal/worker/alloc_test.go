package worker

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/des"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/sparse"
	"specsync/internal/wire"
)

// sink is a node that takes whatever it is sent and answers nothing.
type sink struct{}

func (sink) Init(node.Context)             {}
func (sink) Receive(node.ID, wire.Message) {}

// TestPushRoundAllocatesNothing pins the worker's held messages: one push
// round — sendPush to two shards, both acks, the notify and the next
// iteration's pulls — allocates nothing in the worker or the simulator's
// send path, for a dense push, a raw sparse push and a top-k push. The
// simulator delivers to sinks between rounds, outside the measurement. The
// pin reads the cheapest of 51 rounds: an allocation the round makes every
// time shows in each of them, while a sync.Pool refill does not (the race
// detector drops a quarter of pooled writers, and a round sends five).
func TestPushRoundAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pools once
	mdl := testModel(t, 2)
	ranges, err := ps.ShardRanges(mdl.Dim(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]float64, mdl.Dim())
	for i := range dense {
		dense[i] = float64(i%5) - 2
	}
	for _, tc := range []struct {
		name   string
		codec  codec.Config
		update model.Update
	}{
		{"dense", codec.Config{}, model.Update{Dense: dense}},
		{"sparse", codec.Config{}, model.Update{Sparse: &sparse.Vec{Idx: []int32{0, 3, 6, 7}, Val: []float64{1, -2, 3, 4}}}},
		{"topk", codec.Config{Name: "topk", TopKFrac: 0.5}, model.Update{Dense: dense}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wk, err := New(Config{
				Shards: ranges, Model: mdl, Codec: tc.codec,
				Scheme:  scheme.Config{Base: scheme.ASP},
				Compute: ComputeModel{Base: time.Second, Speed: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry(), Net: des.NetModel{Latency: time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			for id, h := range map[node.ID]node.Handler{
				node.WorkerID(0): wk, node.ServerID(0): sink{}, node.ServerID(1): sink{}, node.Scheduler: sink{},
			} {
				if err := sim.AddNode(id, h); err != nil {
					t.Fatal(err)
				}
			}
			sim.Init()
			acks := make([]msg.PushAck, len(ranges))
			round := func() {
				wk.pushUpdate = tc.update
				if wk.pushCodec != nil {
					wk.encodePush()
				}
				clear(wk.pushAcked)
				wk.sendPush()
				for si := range acks {
					acks[si] = msg.PushAck{Seq: wk.pushSeq}
					wk.Receive(wk.shardIDs[si], &acks[si])
				}
			}
			costs := make([]uint64, 51)
			var before, after runtime.MemStats
			for i := -3; i < len(costs); i++ { // three rounds grow every buffer first
				sim.RunUntilIdle(time.Second)
				runtime.ReadMemStats(&before)
				round()
				runtime.ReadMemStats(&after)
				if wk.st != statePulling {
					t.Fatalf("round %d ended in state %d, want pulling", i, wk.st)
				}
				if i >= 0 {
					costs[i] = after.Mallocs - before.Mallocs
				}
			}
			if least := slices.Min(costs); least != 0 {
				t.Errorf("every push round allocates (at least %d objects; all %v), want 0", least, costs)
			}
		})
	}
}
