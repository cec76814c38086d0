package ps

import (
	"reflect"
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

func TestShardRanges(t *testing.T) {
	rs, err := ShardRanges(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d ranges", len(rs))
	}
	// 10 = 4 + 3 + 3, contiguous.
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i, r := range rs {
		if r != want[i] {
			t.Errorf("range %d = %+v, want %+v", i, r, want[i])
		}
	}
	if _, err := ShardRanges(2, 3); err == nil {
		t.Error("expected error when dim < shards")
	}
	if _, err := ShardRanges(5, 0); err == nil {
		t.Error("expected error for 0 shards")
	}
	if _, err := ShardRanges(5, -1); err == nil {
		t.Error("expected error for negative shards")
	}
}

func TestShardRangesEdges(t *testing.T) {
	// dim == n: every shard gets exactly one parameter.
	rs, err := ShardRanges(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Len() != 1 || r.Lo != i {
			t.Errorf("shard %d = %+v, want unit range at %d", i, r, i)
		}
	}
	// Single shard owns everything.
	rs, err = ShardRanges(17, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0] != (Range{0, 17}) {
		t.Errorf("single shard = %+v", rs)
	}
	// Remainder spreads over the first shards only, sizes differ by <= 1.
	rs, err = ShardRanges(11, 4) // 3+3+3+2
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{{0, 3}, {3, 6}, {6, 9}, {9, 11}}
	for i, r := range rs {
		if r != want[i] {
			t.Errorf("shard %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestShardRangesCoverExactly(t *testing.T) {
	for dim := 1; dim < 50; dim++ {
		for n := 1; n <= dim && n < 9; n++ {
			rs, err := ShardRanges(dim, n)
			if err != nil {
				t.Fatal(err)
			}
			at := 0
			for _, r := range rs {
				if r.Lo != at || r.Hi <= r.Lo {
					t.Fatalf("dim=%d n=%d: bad range %+v at %d", dim, n, r, at)
				}
				at = r.Hi
			}
			if at != dim {
				t.Fatalf("dim=%d n=%d: ranges cover %d", dim, n, at)
			}
		}
	}
}

func newTestSGD(t testing.TB, dim int) *optimizer.SGD {
	t.Helper()
	o, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.5)}, dim)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Config{Range: Range{0, 0}}); err == nil {
		t.Error("expected empty-range error")
	}
	if _, err := New(Config{Range: Range{0, 2}, Init: tensor.Vec{1}}); err == nil {
		t.Error("expected init-length error")
	}
	if _, err := New(Config{Range: Range{0, 2}, Init: tensor.Vec{1, 2}}); err == nil {
		t.Error("expected nil-optimizer error")
	}
}

// client captures server responses in a DES harness.
type client struct {
	ctx   node.Context
	resps []wire.Message
}

func (c *client) Init(ctx node.Context) { c.ctx = ctx }

// Receive keeps a copy: the delivered message goes back to the runtime when
// this returns (node.Handler).
func (c *client) Receive(_ node.ID, m wire.Message) {
	kept, err := msg.Registry().Unmarshal(wire.Marshal(m))
	if err != nil {
		panic(err)
	}
	c.resps = append(c.resps, kept)
}

type stalenessLog struct {
	vals []int64
}

func (s *stalenessLog) ObserveStaleness(worker node.ID, st int64, at time.Time) {
	s.vals = append(s.vals, st)
}

func harness(t *testing.T, cfg Config) (*des.Sim, *Server, *client) {
	t.Helper()
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := &client{}
	if err := sim.AddNode(node.ServerID(0), srv); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(node.WorkerID(0), cl); err != nil {
		t.Fatal(err)
	}
	sim.Init()
	return sim, srv, cl
}

func TestServerPullPush(t *testing.T) {
	slog := &stalenessLog{}
	sim, srv, cl := harness(t, Config{
		Range:     Range{0, 3},
		Init:      tensor.Vec{1, 2, 3},
		Optimizer: newTestSGD(t, 3),
		Staleness: slog,
	})

	send := func(m wire.Message) {
		cl.ctx.Send(node.ServerID(0), m)
		sim.RunUntilIdle(time.Second)
	}

	send(&msg.PullReq{Seq: 1})
	if len(cl.resps) != 1 {
		t.Fatalf("no pull response")
	}
	pr := cl.resps[0].(*msg.PullResp)
	if pr.Seq != 1 || pr.Version != 0 || len(pr.Values) != 3 || pr.Values[2] != 3 {
		t.Fatalf("PullResp = %+v", pr)
	}

	// Push a gradient computed at version 0: w -= 0.5*g. The reply is a
	// PullResp without the block.
	send(&msg.PushReq{Seq: 2, Iter: 0, PullVersion: 0, Dense: []float64{2, 0, -2}})
	ack := cl.resps[1].(*msg.PullResp)
	if ack.Seq != 2 || ack.Version != 1 || len(ack.Values) != 0 {
		t.Fatalf("push reply = %+v", ack)
	}
	if p := srv.Params(); p[0] != 0 || p[2] != 4 {
		t.Fatalf("params after push = %v", p)
	}

	// Second push still claiming version 0 (staleness 1) asks for the pull:
	// the reply carries the block as it stands after this push.
	send(&msg.PushReq{Seq: 3, Iter: 1, PullVersion: 0, Dense: []float64{0, 2, 0}, Pull: true})
	fused := cl.resps[2].(*msg.PullResp)
	if fused.Seq != 3 || fused.Version != 2 || !reflect.DeepEqual(fused.Values, []float64{0, 1, 4}) {
		t.Fatalf("fused push reply = %+v", fused)
	}
	if len(slog.vals) != 2 || slog.vals[1] != 1 {
		t.Fatalf("observer saw %v", slog.vals)
	}
	if pulls, pushes := srv.Stats(); pulls != 2 || pushes != 2 {
		t.Errorf("stats = %d pulls, %d pushes; the fused reply counts as a pull", pulls, pushes)
	}
}

func TestServerSparsePush(t *testing.T) {
	sim, srv, cl := harness(t, Config{
		Range:     Range{10, 14}, // shard-local indices 0..3
		Init:      tensor.Vec{0, 0, 0, 0},
		Optimizer: newTestSGD(t, 4),
	})
	cl.ctx.Send(node.ServerID(0), &msg.PushReq{
		Seq: 1, IsSparse: true,
		SparseIdx: []int32{1, 3}, SparseVal: []float64{2, -2},
	})
	sim.RunUntilIdle(time.Second)
	p := srv.Params()
	if p[1] != -1 || p[3] != 1 || p[0] != 0 {
		t.Fatalf("params = %v", p)
	}
}

func TestServerDropsMalformedPush(t *testing.T) {
	sim, srv, cl := harness(t, Config{
		Range:     Range{0, 3},
		Init:      tensor.Vec{1, 2, 3},
		Optimizer: newTestSGD(t, 3),
	})
	cl.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 1, Dense: []float64{1}}) // wrong length
	sim.RunUntilIdle(time.Second)
	if srv.Version() != 0 {
		t.Error("malformed push must not be applied")
	}
	if len(cl.resps) != 0 {
		t.Error("malformed push must not be acked")
	}
}

func TestServerInitIsCopied(t *testing.T) {
	init := tensor.Vec{1, 2}
	srv, err := New(Config{Range: Range{0, 2}, Init: init, Optimizer: newTestSGD(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	init[0] = 99
	if srv.Params()[0] != 1 {
		t.Error("server aliases caller's init slice")
	}
}

func TestServerStats(t *testing.T) {
	sim, srv, cl := harness(t, Config{
		Range:     Range{0, 2},
		Init:      tensor.Vec{0, 0},
		Optimizer: newTestSGD(t, 2),
	})
	cl.ctx.Send(node.ServerID(0), &msg.PullReq{Seq: 1})
	cl.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 1, Dense: []float64{1, 1}})
	cl.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 2, Dense: []float64{1, 1}})
	sim.RunUntilIdle(time.Second)
	pulls, pushes := srv.Stats()
	if pulls != 1 || pushes != 2 {
		t.Errorf("stats = %d/%d", pulls, pushes)
	}
	if srv.Range() != (Range{0, 2}) {
		t.Errorf("Range = %+v", srv.Range())
	}
}

// TestPromoteCountsItself: a promotion lands in the fault ledger on either
// runtime, with the forwarded pushes a gap kept the backup from applying as
// lost: versions 2 and 3 when 1 and 3 arrived and 2 never did.
func TestPromoteCountsItself(t *testing.T) {
	for _, tc := range []struct {
		name     string
		versions []int64
		lost     int64
	}{
		{"caught up", []int64{1, 2, 3}, 0},
		{"a gap at 2", []int64{1, 3}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New(obs.Options{})
			backup, _ := lifetimeServer(t, func(c *Config) { c.Replica, c.Obs = true, o.Server(0) })
			for _, v := range tc.versions {
				backup.Receive(node.ServerID(0), &msg.ReplApply{Version: v, Body: msg.ReplBodyDense, Dense: []float64{1, 1, 1, 1}})
			}
			backup.Promote(nil)
			st := o.Faults().Totals()
			if st.Promotions != 1 || st.Restarts != 1 || st.LostPushes != tc.lost {
				t.Errorf("ledger: %d promotions, %d restarts, %d lost pushes; want 1, 1, %d", st.Promotions, st.Restarts, st.LostPushes, tc.lost)
			}
		})
	}
}
