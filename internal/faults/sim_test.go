package faults

import (
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/tensor"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// starterHandler counts msg.Start receipts (a restarted worker must get a
// fresh Start) and pushes a gradient to the server once per Start.
type starterHandler struct {
	ctx    node.Context
	starts int
}

func (h *starterHandler) Init(ctx node.Context) { h.ctx = ctx }

func (h *starterHandler) Receive(from node.ID, m wire.Message) {
	if _, ok := m.(*msg.Start); ok {
		h.starts++
		h.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: uint64(h.starts), Iter: 1, Dense: []float64{1, 1}})
	}
}

func newShard(t *testing.T) *ps.Server {
	t.Helper()
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.5)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ps.New(ps.Config{
		Range:     ps.Range{Lo: 0, Hi: 2},
		Init:      tensor.Vec{1, 2},
		Optimizer: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestSimInjectorCrashCheckpointRestore(t *testing.T) {
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := newShard(t)
	wk := &starterHandler{}
	if err := sim.AddNode(node.ServerID(0), srv); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(node.WorkerID(0), wk); err != nil {
		t.Fatal(err)
	}
	collector := trace.NewCollector()
	faults := obs.New(obs.Options{}).Faults()

	plan := &Plan{Events: []Event{
		// Worker crash at 1s, back at 1.5s (fresh incarnation, new Start).
		{Kind: KindCrashWorker, At: time.Second, Node: 0, RestartAfter: 500 * time.Millisecond},
		// Server crash at 2s, back at 2.5s from the latest checkpoint.
		{Kind: KindCrashServer, At: 2 * time.Second, Node: 0, RestartAfter: 500 * time.Millisecond},
	}}
	var current *ps.Server = srv
	var currentWk node.Handler = wk
	inj, err := AttachSim(sim, SimOptions{
		Plan:            plan,
		NumWorkers:      1,
		NumServers:      1,
		Tracer:          collector,
		Faults:          faults,
		CheckpointEvery: 300 * time.Millisecond,
		NewWorker:       func(i int) (node.Handler, error) { return &starterHandler{}, nil },
		NewServer:       func(shard int) (*ps.Server, error) { return newShard(t), nil },
		Server:          func(shard int) *ps.Server { return current },
		OnServerRestart: func(shard int, s *ps.Server) { current = s },
		OnWorkerRestart: func(i int, h node.Handler) { currentWk = h },
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Init()
	// Kick the worker once so the server takes an update before any crash.
	if err := sim.Inject(node.Scheduler, node.WorkerID(0), &msg.Start{}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(3 * time.Second)

	if errs := inj.Errs(); len(errs) != 0 {
		t.Fatalf("injector errors: %v", errs)
	}
	// The replacement worker got its own Start.
	if fresh, ok := currentWk.(*starterHandler); !ok || fresh == wk {
		t.Error("worker was not replaced on restart")
	} else if fresh.starts != 1 {
		t.Errorf("restarted worker received %d Starts, want 1", fresh.starts)
	}
	// The replacement server restored a non-zero checkpoint: version > 0
	// (the pre-crash push bumped it) without replaying any pushes itself.
	if current == srv {
		t.Error("server was not replaced on restart")
	}
	if v := current.Version(); v < 1 {
		t.Errorf("restored server version = %d, want >= 1", v)
	}
	if p := current.Params(); p[0] >= 1 {
		t.Errorf("restored params[0] = %v, want < 1 (post-update state)", p[0])
	}

	st := faults.Totals()
	if st.Crashes != 2 || st.Restarts != 2 {
		t.Errorf("crashes/restarts = %d/%d, want 2/2", st.Crashes, st.Restarts)
	}
	if st.Checkpoints == 0 || st.Restores != 1 {
		t.Errorf("checkpoints/restores = %d/%d, want >0/1", st.Checkpoints, st.Restores)
	}
	if collector.Count(trace.KindCrash) != 2 || collector.Count(trace.KindRecover) != 2 {
		t.Errorf("trace crash/recover = %d/%d, want 2/2",
			collector.Count(trace.KindCrash), collector.Count(trace.KindRecover))
	}
}

func TestAttachSimValidation(t *testing.T) {
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachSim(sim, SimOptions{}); err == nil {
		t.Error("AttachSim accepted a nil plan")
	}
	bad := &Plan{Events: []Event{{Kind: KindCrashWorker, Node: 5}}}
	if _, err := AttachSim(sim, SimOptions{Plan: bad, NumWorkers: 2}); err == nil {
		t.Error("AttachSim accepted an out-of-range worker")
	}
	restart := &Plan{Events: []Event{{Kind: KindCrashWorker, Node: 0, RestartAfter: time.Second}}}
	if _, err := AttachSim(sim, SimOptions{Plan: restart, NumWorkers: 1}); err == nil {
		t.Error("AttachSim accepted a worker restart without NewWorker")
	}
	ck := &Plan{}
	if _, err := AttachSim(sim, SimOptions{Plan: ck, CheckpointEvery: time.Second}); err == nil {
		t.Error("AttachSim accepted checkpointing without a Server accessor")
	}
}
