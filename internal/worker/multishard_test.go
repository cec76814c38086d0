package worker

import (
	"testing"
	"time"

	"specsync/internal/data"
	"specsync/internal/des"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// shardServer is a stub server for one shard range that records pushes.
type shardServer struct {
	ctx     node.Context
	r       ps.Range
	params  tensor.Vec
	pushes  []*msg.PushReq
	version int64
}

func (s *shardServer) Init(ctx node.Context) { s.ctx = ctx }
func (s *shardServer) Receive(from node.ID, m wire.Message) {
	switch req := m.(type) {
	case *msg.PullReq:
		s.ctx.Send(from, &msg.PullResp{Seq: req.Seq, Version: s.version, Values: s.params})
	case *msg.PushReq:
		cp := *req
		s.pushes = append(s.pushes, &cp)
		s.version++
		s.ctx.Send(from, pushReply(req.Seq, s.version, req.Pull, s.params))
	}
}

func TestWorkerMultiShardDenseRouting(t *testing.T) {
	mdl := testModel(t, 2) // linreg dim 8
	ranges, err := ps.ShardRanges(mdl.Dim(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{
		Index:   0,
		Shards:  ranges,
		Model:   mdl,
		Scheme:  scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: 100 * time.Millisecond, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*shardServer, 3)
	for i, r := range ranges {
		servers[i] = &shardServer{r: r, params: make(tensor.Vec, r.Len())}
		// Distinguishable shard contents: shard i filled with i+1.
		servers[i].params.Fill(float64(i + 1))
		if err := sim.AddNode(node.ServerID(i), servers[i]); err != nil {
			t.Fatal(err)
		}
	}
	sched := &stubScheduler{}
	if err := sim.AddNode(node.Scheduler, sched); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(node.WorkerID(0), w); err != nil {
		t.Fatal(err)
	}
	sim.Init()
	sched.ctx.Send(node.WorkerID(0), &msg.Start{})
	sim.RunFor(250 * time.Millisecond) // two iterations

	// Every shard must have received a dense push of exactly its width.
	for i, srv := range servers {
		if len(srv.pushes) == 0 {
			t.Fatalf("shard %d received no pushes", i)
		}
		for _, p := range srv.pushes {
			if p.IsSparse {
				t.Fatalf("linreg must push dense")
			}
			if len(p.Dense) != srv.r.Len() {
				t.Fatalf("shard %d push has %d values, want %d", i, len(p.Dense), srv.r.Len())
			}
		}
	}
	// All shards see the same number of pushes (one per iteration).
	n := len(servers[0].pushes)
	for i, srv := range servers[1:] {
		if len(srv.pushes) != n {
			t.Errorf("shard %d pushes %d != shard 0 pushes %d", i+1, len(srv.pushes), n)
		}
	}
}

func TestWorkerMultiShardSparseRouting(t *testing.T) {
	// MF pushes sparse updates; shard routing must rebase indices.
	ratings, err := data.NewRatings(data.RatingsConfig{
		Users: 20, Items: 15, TrueRank: 2, N: 600, EvalN: 60, Noise: 0.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardRatings(ratings.Train, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := model.NewMF(model.MFConfig{Rank: 2, BatchSize: 16, L2: 0.01}, 20, 15, shards, ratings.Eval)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := ps.ShardRanges(mf.Dim(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{
		Index:   0,
		Shards:  ranges,
		Model:   mf,
		Scheme:  scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: 50 * time.Millisecond, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := des.New(des.Config{Seed: 2, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*shardServer, 2)
	for i, r := range ranges {
		servers[i] = &shardServer{r: r, params: make(tensor.Vec, r.Len())}
		if err := sim.AddNode(node.ServerID(i), servers[i]); err != nil {
			t.Fatal(err)
		}
	}
	sched := &stubScheduler{}
	if err := sim.AddNode(node.Scheduler, sched); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(node.WorkerID(0), w); err != nil {
		t.Fatal(err)
	}
	sim.Init()
	sched.ctx.Send(node.WorkerID(0), &msg.Start{})
	sim.RunFor(300 * time.Millisecond)

	sawValues := false
	for i, srv := range servers {
		for _, p := range srv.pushes {
			if !p.IsSparse {
				t.Fatalf("MF must push sparse")
			}
			for _, ix := range p.SparseIdx {
				if int(ix) < 0 || int(ix) >= srv.r.Len() {
					t.Fatalf("shard %d: rebased index %d outside [0,%d)", i, ix, srv.r.Len())
				}
			}
			if len(p.SparseIdx) > 0 {
				sawValues = true
			}
		}
	}
	if !sawValues {
		t.Fatal("no sparse values pushed at all")
	}
}
