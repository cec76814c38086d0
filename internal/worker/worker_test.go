package worker

import (
	"math/rand"
	"reflect"
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
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// stubServer answers pulls and pushes instantly and counts them.
type stubServer struct {
	ctx     node.Context
	dim     int
	version int64
	pulls   int
	pushes  int
}

func (s *stubServer) Init(ctx node.Context) { s.ctx = ctx }
func (s *stubServer) Receive(from node.ID, m wire.Message) {
	switch req := m.(type) {
	case *msg.PullReq:
		s.pulls++
		s.ctx.Send(from, &msg.PullResp{Seq: req.Seq, Version: s.version, Values: make([]float64, s.dim)})
	case *msg.PushReq:
		s.pushes++
		s.version++
		s.ctx.Send(from, pushReply(req.Seq, s.version, req.Pull, make([]float64, s.dim)))
	case *msg.PushReqV2:
		s.pushes++
		s.version++
		s.ctx.Send(from, pushReply(req.Seq, s.version, req.Pull, make([]float64, s.dim)))
	}
}

// pushReply is a shard's answer to a push: a PullResp that carries the
// block only when the push asked for it.
func pushReply(seq uint64, version int64, pull bool, block []float64) *msg.PullResp {
	resp := &msg.PullResp{Seq: seq, Version: version}
	if pull {
		resp.Values = block
	}
	return resp
}

// stubScheduler records notifies and can inject control messages.
type stubScheduler struct {
	ctx      node.Context
	notifies []int64
}

func (s *stubScheduler) Init(ctx node.Context) { s.ctx = ctx }
func (s *stubScheduler) Receive(from node.ID, m wire.Message) {
	if n, ok := m.(*msg.Notify); ok {
		s.notifies = append(s.notifies, n.Iter)
	}
}

func testModel(t *testing.T, shards int) model.Model {
	t.Helper()
	lr, err := model.NewLinReg(model.LinRegConfig{
		Dim: 8, N: 200, EvalN: 50, Shards: shards, Noise: 0.1, BatchSize: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lr
}

type harness struct {
	sim   *des.Sim
	w     *Worker
	srv   *stubServer
	sched *stubScheduler
	coll  *trace.Collector
}

func newHarness(t *testing.T, mut func(*Config)) *harness {
	t.Helper()
	mdl := testModel(t, 2)
	coll := trace.NewCollector()
	cfg := Config{
		Index:   0,
		Shards:  []ps.Range{{Lo: 0, Hi: mdl.Dim()}},
		Model:   mdl,
		Scheme:  scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: time.Second, Speed: 1},
		Tracer:  coll,
	}
	if mut != nil {
		mut(&cfg)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry(), Net: des.NetModel{Latency: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	srv := &stubServer{dim: mdl.Dim()}
	sched := &stubScheduler{}
	for id, h := range map[node.ID]node.Handler{
		node.WorkerID(0): w,
		node.ServerID(0): srv,
		node.Scheduler:   sched,
	} {
		if err := sim.AddNode(id, h); err != nil {
			t.Fatal(err)
		}
	}
	sim.Init()
	return &harness{sim: sim, w: w, srv: srv, sched: sched, coll: coll}
}

func (h *harness) start() {
	h.sched.ctx.Send(node.WorkerID(0), &msg.Start{})
}

func TestWorkerValidation(t *testing.T) {
	mdl := testModel(t, 2)
	base := Config{
		Index:   0,
		Shards:  []ps.Range{{Lo: 0, Hi: mdl.Dim()}},
		Model:   mdl,
		Scheme:  scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: time.Second, Speed: 1},
	}
	bad := []func(c *Config){
		func(c *Config) { c.Index = -1 },
		func(c *Config) { c.Shards = nil },
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Index = 5 }, // more than data shards
		func(c *Config) { c.Scheme = scheme.Config{} },
		func(c *Config) { c.Compute.Speed = 0 },
		func(c *Config) { c.Shards = []ps.Range{{Lo: 0, Hi: 3}} }, // doesn't cover dim
		func(c *Config) { c.Shards = []ps.Range{{Lo: 1, Hi: mdl.Dim() + 1}} },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestComputeModelSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cm := ComputeModel{Base: time.Second, Speed: 2, JitterSigma: 0.3}
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := cm.Sample(rng)
		if d <= 0 {
			t.Fatal("non-positive duration")
		}
		sum += d
	}
	mean := sum / n
	// Mean-preserving jitter: mean should be near Base/Speed = 500ms.
	if mean < 450*time.Millisecond || mean > 550*time.Millisecond {
		t.Errorf("mean duration %v, want ~500ms", mean)
	}
	// No jitter: deterministic.
	det := ComputeModel{Base: time.Second, Speed: 4}
	if det.Sample(rng) != 250*time.Millisecond {
		t.Error("jitterless sample should be Base/Speed exactly")
	}
}

func TestWorkerIterationLoop(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(5500 * time.Millisecond)
	// ~1s per iteration (plus small latencies): expect 5 completed.
	if got := h.w.IterationsDone(); got < 4 || got > 6 {
		t.Errorf("IterationsDone = %d, want ~5", got)
	}
	if len(h.sched.notifies) != int(h.w.IterationsDone()) {
		t.Errorf("notifies %d != iterations %d", len(h.sched.notifies), h.w.IterationsDone())
	}
	// Notify iteration numbers are sequential from 0.
	for i, it := range h.sched.notifies {
		if it != int64(i) {
			t.Fatalf("notify %d carries iter %d", i, it)
		}
	}
	if h.coll.Count(trace.KindPull) != h.coll.Count(trace.KindPush)+1 {
		t.Errorf("pulls %d vs pushes %d: expected one in-flight pull",
			h.coll.Count(trace.KindPull), h.coll.Count(trace.KindPush))
	}
}

func TestWorkerReSyncAbortsAndRestarts(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	// Let iteration 0 complete (~1s), then send a re-sync for iteration 1
	// early in its compute phase.
	h.sim.RunFor(1200 * time.Millisecond)
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 1})
	h.sim.RunFor(3 * time.Second)

	if got := h.w.Aborts(); got != 1 {
		t.Fatalf("Aborts = %d, want 1", got)
	}
	if h.coll.Count(trace.KindAbort) != 1 {
		t.Error("no abort trace event")
	}
	// The worker re-pulled: one more pull than pushes+1.
	pulls := h.coll.Count(trace.KindPull)
	pushes := h.coll.Count(trace.KindPush)
	if pulls != pushes+2 {
		t.Errorf("pulls=%d pushes=%d, want pulls = pushes+2 after one abort", pulls, pushes)
	}
	// Training continued after the abort.
	if h.w.IterationsDone() < 3 {
		t.Errorf("IterationsDone = %d, training stalled after abort", h.w.IterationsDone())
	}
}

func TestWorkerIgnoresStaleReSync(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(1200 * time.Millisecond)
	// Re-sync for iteration 0, which already completed: must be ignored.
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 0})
	h.sim.RunFor(2 * time.Second)
	if h.w.Aborts() != 0 {
		t.Error("stale re-sync caused an abort")
	}
}

// TestWorkerIgnoresLateReSync pins the 0.9 "too late to abort" cutoff from
// both sides: a re-sync landing at 95 % of iteration 1's compute is ignored,
// one at 85 % aborts it.
func TestWorkerIgnoresLateReSync(t *testing.T) {
	for _, tc := range []struct {
		frac   float64
		aborts int64
	}{{0.95, 0}, {0.85, 1}} {
		h := newHarness(t, nil)
		h.start()
		h.sim.RunFor(1500 * time.Millisecond) // mid-compute of iteration 1
		if h.w.st != stateComputing || h.w.iter != 1 {
			t.Fatalf("worker not computing iteration 1 (state %v, iter %d)", h.w.st, h.w.iter)
		}
		arrive := h.w.computeStart.Add(time.Duration(tc.frac * float64(h.w.computeDur)))
		h.sim.RunFor(arrive.Sub(h.w.ctx.Now()) - time.Millisecond) // less the link's 1 ms
		h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 1})
		h.sim.RunFor(2 * time.Second)
		if got := h.w.Aborts(); got != tc.aborts {
			t.Errorf("re-sync at %.0f%% of compute: %d aborts, want %d", 100*tc.frac, got, tc.aborts)
		}
	}
}

func TestWorkerDiscardsStalePullResp(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(10 * time.Millisecond)
	// Inject a response with an old sequence number mid-flight.
	h.sched.ctx.Send(node.WorkerID(0), &msg.PullResp{Seq: 999, Values: make([]float64, h.srv.dim)})
	h.sim.RunFor(5 * time.Second)
	// Worker must still be making normal progress (the bogus response did
	// not double-start compute or corrupt state).
	if h.w.IterationsDone() < 3 {
		t.Errorf("IterationsDone = %d after bogus pull resp", h.w.IterationsDone())
	}
}

func TestWorkerMaxIters(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxIters = 3 })
	h.start()
	h.sim.RunFor(time.Minute)
	if got := h.w.IterationsDone(); got != 3 {
		t.Errorf("IterationsDone = %d, want 3", got)
	}
	if !h.w.Stopped() {
		t.Error("worker should have stopped")
	}
}

func TestWorkerStopCancelsCompute(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(1300 * time.Millisecond) // mid-compute of iteration 1
	h.sched.ctx.Send(node.WorkerID(0), &msg.Stop{})
	h.sim.RunFor(10 * time.Second)
	if got := h.w.IterationsDone(); got != 1 {
		t.Errorf("IterationsDone = %d, want 1 (stopped mid-iteration)", got)
	}
}

func TestWorkerNaiveWaitDelaysPull(t *testing.T) {
	plain := newHarness(t, nil)
	plain.start()
	plain.sim.RunFor(10 * time.Second)

	delayed := newHarness(t, func(c *Config) { c.Scheme.NaiveWait = 500 * time.Millisecond })
	delayed.start()
	delayed.sim.RunFor(10 * time.Second)

	// A 0.5s delay on a 1s iteration should cut throughput by ~1/3.
	p, d := plain.w.IterationsDone(), delayed.w.IterationsDone()
	if d >= p {
		t.Errorf("naive wait did not slow iterations: plain=%d delayed=%d", p, d)
	}
}

func TestWorkerBSPWaitsForBarrier(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Scheme = scheme.Config{Base: scheme.BSP} })
	h.start()
	h.sim.RunFor(5 * time.Second)
	// No Release was ever sent: exactly one iteration.
	if got := h.w.IterationsDone(); got != 1 {
		t.Fatalf("IterationsDone = %d, want 1 without releases", got)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.Release{Clock: 1})
	h.sim.RunFor(2 * time.Second)
	if got := h.w.IterationsDone(); got != 2 {
		t.Errorf("IterationsDone = %d after release, want 2", got)
	}
}

// TestWorkerBSPIgnoresStaleRelease: a parked worker that receives a release
// older than the iteration it waits to start — what a duplicating or
// delaying network delivers — must stay parked.
func TestWorkerBSPIgnoresStaleRelease(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Scheme = scheme.Config{Base: scheme.BSP} })
	h.start()
	h.sim.RunFor(5 * time.Second)
	if got := h.w.IterationsDone(); got != 1 {
		t.Fatalf("IterationsDone = %d, want 1 without releases", got)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.Release{Clock: 0})
	h.sim.RunFor(5 * time.Second)
	if got := h.w.IterationsDone(); got != 1 {
		t.Fatalf("IterationsDone = %d after a stale release, want 1 (still parked)", got)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.Release{Clock: 1})
	h.sim.RunFor(2 * time.Second)
	if got := h.w.IterationsDone(); got != 2 {
		t.Errorf("IterationsDone = %d after the covering release, want 2", got)
	}
}

func TestWorkerSSPGate(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Scheme = scheme.Config{Base: scheme.SSP, Staleness: 2} })
	h.start()
	h.sim.RunFor(20 * time.Second)
	// The released clock stays 0 (no Release messages): worker may run
	// iterations 0, 1, 2 and then must block (iter 3 > 0 + 2).
	if got := h.w.IterationsDone(); got != 3 {
		t.Fatalf("IterationsDone = %d, want 3 at staleness bound", got)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.Release{Clock: 1})
	h.sim.RunFor(2 * time.Second)
	if got := h.w.IterationsDone(); got != 4 {
		t.Errorf("IterationsDone = %d after clock advance, want 4", got)
	}
}

func TestWorkerCodecStateCheckpointRoundTrip(t *testing.T) {
	ccfg := codec.Config{Name: "topk", TopKFrac: 0.25}
	h := newHarness(t, func(c *Config) { c.Codec = ccfg })
	h.start()
	h.sim.RunFor(3500 * time.Millisecond)
	if h.srv.pushes < 2 {
		t.Fatalf("only %d pushes completed", h.srv.pushes)
	}
	st := h.w.CodecState()
	if st == nil {
		t.Fatal("topk worker has no codec state")
	}
	nonzero := false
	for _, block := range st.Residuals {
		for _, v := range block {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Error("residuals all zero after lossy pushes")
	}

	// Snapshot, then restore into a fresh worker, as specsync-node does
	// across a process restart.
	restored, err := codec.RestoreState(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	h2 := newHarness(t, func(c *Config) { c.Codec = ccfg })
	if err := h2.w.RestoreCodecState(restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2.w.CodecState().Residuals, st.Residuals) {
		t.Error("restored residuals differ from snapshot")
	}

	// Shape mismatches and codecs without residual state are rejected.
	if err := h2.w.RestoreCodecState(codec.NewState([]int{3})); err == nil {
		t.Error("shape-mismatched snapshot accepted")
	}
	raw := newHarness(t, nil)
	if raw.w.CodecState() != nil {
		t.Error("raw worker reports codec state")
	}
	if err := raw.w.RestoreCodecState(restored); err == nil {
		t.Error("raw worker accepted a residual restore")
	}
}

// TestEncodePushSteadyStateAllocs pins the once-per-iteration encode at zero
// heap allocations, for a dense and a sparse gradient: the codec selects in
// its pooled scratch and debits the residual in place, each shard's payload
// is written into its own retained writer, and the sparse fold walks the
// gradient in place.
func TestEncodePushSteadyStateAllocs(t *testing.T) {
	for _, isSparse := range []bool{false, true} {
		h := newHarness(t, func(c *Config) {
			c.Codec = codec.Config{Name: "topk", TopKFrac: 0.25}
			c.CodecStats = codec.NewStats(nil)
		})
		h.start()
		h.sim.RunFor(2500 * time.Millisecond) // two pushes: the writers have grown
		if h.srv.pushes < 2 {
			t.Fatalf("only %d pushes completed", h.srv.pushes)
		}
		// The pushes above completed, so the worker released their gradient:
		// the fixture brings its own.
		if isSparse {
			h.w.pushUpdate = model.Update{Sparse: &sparse.Vec{Idx: []int32{1, 2, 5}, Val: []float64{1, -2, 3}}}
		} else {
			g := make([]float64, h.w.cfg.Model.Dim())
			for i := range g {
				g[i] = float64(i%7) - 3
			}
			h.w.pushUpdate = model.Update{Dense: g}
		}
		if allocs := testing.AllocsPerRun(100, h.w.encodePush); allocs != 0 {
			t.Errorf("sparse=%v: encodePush allocates %v times per call, want 0", isSparse, allocs)
		}
	}
}
