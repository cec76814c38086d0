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
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/sparse"
	"specsync/internal/wire"
)

// sink is a node that takes whatever it is sent and answers nothing; pulls
// counts the PullReqs among it.
type sink struct{ pulls *int }

func (sink) Init(node.Context) {}
func (s sink) Receive(_ node.ID, m wire.Message) {
	if _, ok := m.(*msg.PullReq); ok && s.pulls != nil {
		*s.pulls++
	}
}

// heldTimers is a worker's node.Context with the runtime's send path and a
// timer that costs nothing to arm and never fires: what arming a compute
// timer costs is the runtime's, not the worker's.
type heldTimers struct{ node.Context }

func (heldTimers) After(time.Duration, func()) node.CancelFunc { return func() {} }

// onHeldTimers hosts a worker on a heldTimers context.
type onHeldTimers struct{ *Worker }

func (h onHeldTimers) Init(ctx node.Context) { h.Worker.Init(heldTimers{ctx}) }

// relay is a shard's node.Context that sends nothing: it keeps the last reply
// for the test to deliver. The reply is the shard's held message, good until
// its next send.
type relay struct {
	node.Context
	last *wire.Message
}

func (r relay) Send(_ node.ID, m wire.Message) { *r.last = m }

// onRelay hosts a shard on a relay context.
type onRelay struct {
	*ps.Server
	last *wire.Message
}

func (h onRelay) Init(ctx node.Context) { h.Server.Init(relay{ctx, h.last}) }

// TestPushRoundAllocatesNothing pins the worker's held messages and its one
// reply handler: one push round — sendPush to two shards, both replies and
// the notify — allocates nothing in the worker or the simulator's send path,
// for a dense push, a raw sparse push and a top-k push; a top-k round also
// hands each payload to a real shard's Receive, which decodes and applies it
// and replies without allocating either, and the worker takes that reply.
// Under ASP the round is fused: the replies carry the blocks (a top-k shard's
// as a delta against the worker's block) and the round ends computing the
// next iteration with no PullReq sent. Under BSP it is not, and the round
// ends parked at the gate. The simulator delivers to sinks between rounds,
// outside the measurement. The pin reads the cheapest of 51 rounds: an
// allocation the round makes every time shows in each of them, while a
// sync.Pool refill does not (the race detector drops a quarter of pooled
// writers, and a round sends three).
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
			for _, base := range []scheme.Base{scheme.ASP, scheme.BSP} {
				fused := base == scheme.ASP
				t.Run(base.String(), func(t *testing.T) {
					wk, err := New(Config{
						Shards: ranges, Model: mdl, Codec: tc.codec,
						Scheme:  scheme.Config{Base: base},
						Compute: ComputeModel{Base: time.Second, Speed: 1},
					})
					if err != nil {
						t.Fatal(err)
					}
					sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry(), Net: des.NetModel{Latency: time.Millisecond}})
					if err != nil {
						t.Fatal(err)
					}
					pulls := 0
					hosts := map[node.ID]node.Handler{
						node.WorkerID(0): onHeldTimers{wk}, node.ServerID(0): sink{&pulls}, node.ServerID(1): sink{&pulls}, node.Scheduler: sink{},
					}
					// The shards sit beside the sinks, on IDs no send goes to.
					var shards []*ps.Server
					shardReplies := make([]wire.Message, len(ranges))
					if wk.pushCodec != nil {
						for si, r := range ranges {
							opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.01), Clip: 10}, r.Len())
							if err != nil {
								t.Fatal(err)
							}
							srv, err := ps.New(ps.Config{Range: r, Init: make([]float64, r.Len()), Optimizer: opt})
							if err != nil {
								t.Fatal(err)
							}
							shards = append(shards, srv)
							hosts[node.ServerID(len(ranges)+si)] = onRelay{srv, &shardReplies[si]}
						}
					}
					pushes, self := make([]msg.PushReqV2, len(shards)), node.WorkerID(0)
					for id, h := range hosts {
						if err := sim.AddNode(id, h); err != nil {
							t.Fatal(err)
						}
					}
					sim.Init()
					replies := make([]msg.PullResp, len(ranges))
					for si, r := range ranges {
						if fused {
							replies[si].Values = dense[r.Lo:r.Hi]
						}
					}
					deltas := 0
					round := func() {
						wk.pushUpdate = tc.update
						if wk.pushCodec != nil {
							wk.encodePush()
						}
						clear(wk.answered)
						wk.fused = wk.fusable()
						wk.sendPush()
						for si, srv := range shards {
							pushes[si] = msg.PushReqV2{Seq: wk.seq, Iter: wk.iter, PullVersion: wk.pullVersions[si],
								Codec: uint8(wk.pushCodec.ID()), Payload: wk.pushEnc[si].Bytes(), Pull: wk.fused}
							version := srv.Version()
							srv.Receive(self, &pushes[si])
							if srv.Version() != version+1 {
								t.Fatalf("shard %d did not apply the push", si)
							}
							if r, ok := shardReplies[si].(*msg.PullRespV2); ok && r.Base >= 0 {
								deltas++
							}
						}
						for si := range replies {
							if shards != nil {
								wk.Receive(wk.shardIDs[si], shardReplies[si])
								continue
							}
							replies[si].Seq = wk.seq
							replies[si].Version = wk.pullVersions[si] + 1
							wk.Receive(wk.shardIDs[si], &replies[si])
						}
					}
					want := stateBarrier
					if fused {
						want = stateComputing
					}
					costs := make([]uint64, 51)
					var before, after runtime.MemStats
					for i := -3; i < len(costs); i++ { // three rounds grow every buffer first
						sim.RunUntilIdle(time.Second)
						runtime.ReadMemStats(&before)
						round()
						runtime.ReadMemStats(&after)
						if wk.st != want {
							t.Fatalf("round %d ended in state %d, want %d", i, wk.st, want)
						}
						if i >= 0 {
							costs[i] = after.Mallocs - before.Mallocs
						}
					}
					sim.RunUntilIdle(time.Second)
					if pulls != 0 {
						t.Errorf("%d PullReqs sent, want none", pulls)
					}
					if least := slices.Min(costs); least != 0 {
						t.Errorf("every push round allocates (at least %d objects; all %v), want 0", least, costs)
					}
					if fused && shards != nil && deltas < 2*len(costs) {
						t.Errorf("%d of %d fused top-k replies were deltas", deltas, 2*(len(costs)+3))
					}
				})
			}
		})
	}
}
