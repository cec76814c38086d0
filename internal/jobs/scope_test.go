package jobs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

func TestPrefixAndIDs(t *testing.T) {
	if Prefix(0) != "" {
		t.Errorf("Prefix(0) = %q, want empty (default tenant keeps the legacy namespace)", Prefix(0))
	}
	if got := WorkerID(0, 3); got != node.WorkerID(3) {
		t.Errorf("WorkerID(0,3) = %q, want legacy %q", got, node.WorkerID(3))
	}
	if got := SchedulerID(0); got != node.Scheduler {
		t.Errorf("SchedulerID(0) = %q, want legacy %q", got, node.Scheduler)
	}
	if got := WorkerID(2, 3); got != "job/2/worker/3" {
		t.Errorf("WorkerID(2,3) = %q", got)
	}
	if got := SchedulerID(2); got != "job/2/scheduler" {
		t.Errorf("SchedulerID(2) = %q", got)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct {
		in    node.ID
		job   int
		local node.ID
	}{
		{"worker/3", 0, "worker/3"},
		{"scheduler", 0, "scheduler"},
		{"server/1", 0, "server/1"},
		{"job/2/worker/3", 2, "worker/3"},
		{"job/11/scheduler", 11, "scheduler"},
		{"job/x/worker/0", 0, "job/x/worker/0"}, // malformed: passthrough
		{"job/", 0, "job/"},
		{"job/0/worker/1", 0, "job/0/worker/1"}, // job 0 never uses the prefix
	}
	for _, tc := range cases {
		j, local := Split(tc.in)
		if j != tc.job || local != tc.local {
			t.Errorf("Split(%q) = (%d, %q), want (%d, %q)", tc.in, j, local, tc.job, tc.local)
		}
	}
	// Round trip for every job including the default tenant.
	for _, job := range []int{0, 1, 7} {
		for i := 0; i < 3; i++ {
			j, local := Split(WorkerID(job, i))
			if j != job || local != node.WorkerID(i) {
				t.Errorf("Split(WorkerID(%d,%d)) = (%d, %q)", job, i, j, local)
			}
		}
	}
}

// fakeCtx records sends for scope tests.
type fakeCtx struct {
	self  node.ID
	sends []fakeSend
	logs  int
}

type fakeSend struct {
	to node.ID
	m  wire.Message
}

func (c *fakeCtx) Self() node.ID  { return c.self }
func (c *fakeCtx) Now() time.Time { return time.Unix(0, 0) }
func (c *fakeCtx) Send(to node.ID, m wire.Message) {
	c.sends = append(c.sends, fakeSend{to: to, m: m})
}
func (c *fakeCtx) After(d time.Duration, f func()) node.CancelFunc { return func() {} }
func (c *fakeCtx) Rand() *rand.Rand                                { return rand.New(rand.NewSource(1)) }
func (c *fakeCtx) Logf(format string, args ...any)                 { c.logs++ }

// echoHandler records what the wrapped node sees and can send on demand.
type echoHandler struct {
	ctx   node.Context
	froms []node.ID
	msgs  []wire.Message
}

func (h *echoHandler) Init(ctx node.Context) { h.ctx = ctx }
func (h *echoHandler) Receive(from node.ID, m wire.Message) {
	h.froms = append(h.froms, from)
	h.msgs = append(h.msgs, m)
}

func TestScopedTranslation(t *testing.T) {
	inner := &echoHandler{}
	acct := NewAcct()
	s := WrapWorker(3, inner, acct, 0)
	ctx := &fakeCtx{self: WorkerID(3, 1)}
	s.Init(ctx)

	// The wrapped node sees a job-local self.
	if got := inner.ctx.Self(); got != node.WorkerID(1) {
		t.Errorf("scoped Self() = %q, want %q", got, node.WorkerID(1))
	}

	// Server-bound data traffic is enveloped for jobs beyond the default.
	inner.ctx.Send(node.ServerID(2), &msg.PushReq{Seq: 1, Dense: []float64{1}})
	if len(ctx.sends) != 1 || ctx.sends[0].to != node.ServerID(2) {
		t.Fatalf("server send = %+v", ctx.sends)
	}
	env, ok := ctx.sends[0].m.(*msg.JobMsg)
	if !ok || env.Job != 3 {
		t.Fatalf("server-bound message not enveloped for job 3: %T", ctx.sends[0].m)
	}

	// Scheduler- and worker-bound control traffic is renamed, not enveloped.
	inner.ctx.Send(node.Scheduler, &msg.PushNotice{})
	inner.ctx.Send(node.WorkerID(2), &msg.Start{})
	if ctx.sends[1].to != SchedulerID(3) || ctx.sends[2].to != WorkerID(3, 2) {
		t.Errorf("control sends = %q, %q", ctx.sends[1].to, ctx.sends[2].to)
	}
	if _, ok := ctx.sends[1].m.(*msg.JobMsg); ok {
		t.Errorf("scheduler-bound message enveloped")
	}

	// Incoming namespaced senders are translated back; foreign jobs are not.
	s.Receive(SchedulerID(3), &msg.Start{})
	s.Receive(node.ServerID(2), &msg.PushAck{})
	if inner.froms[0] != node.Scheduler || inner.froms[1] != node.ServerID(2) {
		t.Errorf("receive froms = %v", inner.froms)
	}

	// Every send was recorded against the job's accounting, at envelope size.
	if acct.Bytes() == 0 {
		t.Errorf("no bytes recorded")
	}
	want := int64(wire.EncodedSize(env) + wire.EncodedSize(&msg.PushNotice{}) + wire.EncodedSize(&msg.Start{}))
	if acct.Bytes() != want {
		t.Errorf("acct bytes = %d, want %d", acct.Bytes(), want)
	}
}

func TestScopedDefaultTenantIdentity(t *testing.T) {
	inner := &echoHandler{}
	s := WrapWorker(0, inner, NewAcct(), 0)
	ctx := &fakeCtx{self: node.WorkerID(1)}
	s.Init(ctx)

	inner.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 1})
	inner.ctx.Send(node.Scheduler, &msg.PushNotice{})
	if ctx.sends[0].to != node.ServerID(0) || ctx.sends[1].to != node.Scheduler {
		t.Errorf("job-0 sends renamed: %q, %q", ctx.sends[0].to, ctx.sends[1].to)
	}
	if _, ok := ctx.sends[0].m.(*msg.JobMsg); ok {
		t.Errorf("job-0 server traffic enveloped — breaks legacy parity")
	}
}

func TestPushGate(t *testing.T) {
	inner := &echoHandler{}
	acct := NewAcct()
	s := WrapWorker(1, inner, acct, 2)
	ctx := &fakeCtx{self: WorkerID(1, 0)}
	s.Init(ctx)

	push := func(seq uint64) { inner.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: seq}) }
	push(1)
	push(2)
	push(3) // over the cap: queued
	push(4) // queued
	if len(ctx.sends) != 2 {
		t.Fatalf("delivered %d pushes with cap 2", len(ctx.sends))
	}
	if acct.ThrottledPushes() != 2 {
		t.Errorf("throttled = %d, want 2", acct.ThrottledPushes())
	}
	if acct.InflightPushes() != 2 {
		t.Errorf("inflight = %d, want 2", acct.InflightPushes())
	}

	// Each ack releases one queued push, FIFO.
	s.Receive(node.ServerID(0), &msg.PushAck{})
	if len(ctx.sends) != 3 {
		t.Fatalf("ack did not release a queued push")
	}
	env := ctx.sends[2].m.(*msg.JobMsg)
	rel, err := msg.UnwrapJob(wireRegistry(t), env)
	if err != nil {
		t.Fatalf("unwrap released push: %v", err)
	}
	if rel.(*msg.PushReq).Seq != 3 {
		t.Errorf("released push seq = %d, want 3 (FIFO)", rel.(*msg.PushReq).Seq)
	}
	s.Receive(node.ServerID(0), &msg.PushAck{})
	s.Receive(node.ServerID(0), &msg.PushAck{})
	s.Receive(node.ServerID(0), &msg.PushAck{})
	if len(ctx.sends) != 4 {
		t.Errorf("delivered %d pushes, want all 4", len(ctx.sends))
	}
	if acct.InflightPushes() != 0 {
		t.Errorf("inflight = %d after all acks", acct.InflightPushes())
	}
	// Non-push traffic is never gated.
	inner.ctx.Send(node.ServerID(0), &msg.PullReq{})
	if len(ctx.sends) != 5 {
		t.Errorf("pull was gated")
	}
}

// TestPushGateParksACopy: a job-0 push parked by the gate travels bare, and the
// worker reuses the gradient and encoder buffers behind it as soon as the
// iteration ends — before the ack that releases it. What is delivered then
// must be what was sent, not what the buffers hold by then.
func TestPushGateParksACopy(t *testing.T) {
	forms := map[string]func() (wire.Message, func()){
		"raw dense": func() (wire.Message, func()) {
			m := &msg.PushReq{Seq: 2, Iter: 7, PullVersion: 3, Dense: []float64{1, 2, 3}}
			return m, func() { m.Dense[0], m.Dense[2] = math.NaN(), math.NaN() }
		},
		"raw sparse": func() (wire.Message, func()) {
			m := &msg.PushReq{Seq: 2, Iter: 7, IsSparse: true, SparseIdx: []int32{4, 9}, SparseVal: []float64{1, 2}}
			return m, func() { m.SparseIdx[0], m.SparseVal[1] = 5, math.NaN() }
		},
		"codec": func() (wire.Message, func()) {
			m := &msg.PushReqV2{Seq: 2, Iter: 7, Codec: 1, Payload: []byte{1, 2, 3, 4}}
			return m, func() { m.Payload[0], m.Payload[3] = 0xFF, 0xFF }
		},
	}
	for name, form := range forms {
		inner := &echoHandler{}
		s := WrapWorker(0, inner, NewAcct(), 1)
		ctx := &fakeCtx{self: node.WorkerID(0)}
		s.Init(ctx)

		twin, _ := form()
		want := wire.Marshal(twin)
		parked, scribble := form()
		inner.ctx.Send(node.ServerID(0), &msg.PushReq{Seq: 1})
		inner.ctx.Send(node.ServerID(0), parked)
		if len(ctx.sends) != 1 {
			t.Fatalf("%s: %d sends with cap 1, want the second push parked", name, len(ctx.sends))
		}
		scribble()
		s.Receive(node.ServerID(0), &msg.PushAck{})
		if len(ctx.sends) != 2 {
			t.Fatalf("%s: the ack released nothing", name)
		}
		if got := wire.Marshal(ctx.sends[1].m); !bytes.Equal(got, want) {
			t.Errorf("%s: released push encodes to % x, sent % x", name, got, want)
		}
	}
}

func wireRegistry(t *testing.T) *wire.Registry {
	t.Helper()
	return msg.Registry()
}

func TestServerHostDispatch(t *testing.T) {
	reg := msg.Registry()
	h := NewServerHost(reg)
	def, other := &echoHandler{}, &echoHandler{}
	h.AddTenant(0, def, NewAcct())
	ctx := &fakeCtx{self: node.ServerID(0)}
	h.Init(ctx)
	h.AddTenant(2, other, NewAcct()) // late mount: initialized immediately
	if other.ctx == nil {
		t.Fatal("late tenant not initialized")
	}

	// Bare traffic goes to the default tenant.
	h.Receive(node.WorkerID(1), &msg.PushReq{Seq: 9})
	if len(def.msgs) != 1 || len(other.msgs) != 0 {
		t.Fatalf("bare dispatch: default %d, other %d", len(def.msgs), len(other.msgs))
	}

	// Envelopes dispatch to their tenant with the original global sender.
	env := msg.WrapJob(2, &msg.PushReq{Seq: 5, Dense: []float64{1, 2}})
	h.Receive(WorkerID(2, 1), env)
	if len(other.msgs) != 1 {
		t.Fatalf("enveloped dispatch missed")
	}
	if other.froms[0] != WorkerID(2, 1) {
		t.Errorf("tenant saw sender %q, want global %q", other.froms[0], WorkerID(2, 1))
	}
	if got := other.msgs[0].(*msg.PushReq).Seq; got != 5 {
		t.Errorf("unwrapped seq = %d", got)
	}

	// Unknown tenants and garbage payloads are dropped with a log.
	h.Receive(WorkerID(9, 0), msg.WrapJob(9, &msg.PushReq{}))
	h.Receive(WorkerID(2, 0), &msg.JobMsg{Job: 2, Payload: []byte{0xff, 0xff}})
	if ctx.logs != 2 {
		t.Errorf("drops logged %d times, want 2", ctx.logs)
	}

	// Tenant replies are charged to the tenant's accounting.
	acct := NewAcct()
	h2 := NewServerHost(reg)
	te := &echoHandler{}
	h2.AddTenant(1, te, acct)
	h2.Init(&fakeCtx{self: node.ServerID(1)})
	te.ctx.Send(WorkerID(1, 0), &msg.PushAck{})
	if acct.Bytes() != int64(wire.EncodedSize(&msg.PushAck{})) {
		t.Errorf("tenant reply bytes = %d", acct.Bytes())
	}

	h.RemoveTenant(2)
	if h.Tenant(2) != nil || h.Tenants() != 1 {
		t.Errorf("RemoveTenant left state behind")
	}
}
