package jobs

import (
	"slices"
	"strconv"
	"strings"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// ID namespacing. Job 0 is the default tenant and occupies the legacy ID
// space ("worker/3", "scheduler") with un-enveloped server traffic, so a
// one-job fleet replays a legacy single-job run byte for byte (the per-node
// RNG streams are derived from node IDs, and the envelope would change
// message sizes). Every other job lives under "job/<id>/" and wraps its
// server-bound traffic in a JobMsg envelope.

// Prefix returns the node-ID namespace prefix for one job ("" for job 0).
func Prefix(job int) string {
	if job == 0 {
		return ""
	}
	return "job/" + strconv.Itoa(job) + "/"
}

// WorkerID returns the fleet-global ID of one job's i-th worker.
func WorkerID(job, i int) node.ID {
	return node.ID(Prefix(job)) + node.WorkerID(i)
}

// SchedulerID returns the fleet-global ID of one job's scheduler.
func SchedulerID(job int) node.ID {
	return node.ID(Prefix(job)) + node.Scheduler
}

// Split resolves a fleet-global ID to (job, job-local ID). IDs outside any
// job namespace (servers, probes) resolve to job 0 with the ID unchanged.
func Split(id node.ID) (int, node.ID) {
	s := string(id)
	if !strings.HasPrefix(s, "job/") {
		return 0, id
	}
	rest := s[len("job/"):]
	slash := strings.IndexByte(rest, '/')
	if slash <= 0 {
		return 0, id
	}
	j, err := strconv.Atoi(rest[:slash])
	if err != nil || j <= 0 {
		return 0, id
	}
	return j, node.ID(rest[slash+1:])
}

// Scoped adapts an unchanged worker or scheduler to run inside a fleet:
// outgoing destinations are translated into the job's namespace (and
// server-bound messages enveloped), incoming senders are translated back, and
// every send is recorded against the job's byte accounting. A worker-side
// push gate enforces Quota.MaxInflightPush by queueing pushes until acks
// drain.
type Scoped struct {
	job   int
	inner node.Handler
	acct  *Acct
	gate  *pushGate
	sctx  *scopedCtx
}

// WrapWorker scopes a worker handler to one job. maxInflight > 0 installs
// the push gate.
func WrapWorker(job int, h node.Handler, acct *Acct, maxInflight int) *Scoped {
	s := &Scoped{job: job, inner: h, acct: acct}
	if maxInflight > 0 {
		s.gate = &pushGate{s: s, max: maxInflight}
	}
	return s
}

// WrapScheduler scopes a scheduler handler to one job.
func WrapScheduler(job int, h node.Handler, acct *Acct) *Scoped {
	return &Scoped{job: job, inner: h, acct: acct}
}

// Inner returns the wrapped handler.
func (s *Scoped) Inner() node.Handler { return s.inner }

// Init implements node.Handler.
func (s *Scoped) Init(ctx node.Context) {
	s.sctx = &scopedCtx{Context: ctx, s: s}
	s.inner.Init(s.sctx)
}

// Receive implements node.Handler: acks release gated pushes, then the
// sender ID is translated into the job-local namespace. Server IDs pass
// through unchanged (tenants reply from the shared global slots).
func (s *Scoped) Receive(from node.ID, m wire.Message) {
	if s.gate != nil && m.Kind() == msg.KindPushAck {
		s.gate.release()
	}
	if j, local := Split(from); j == s.job {
		from = local
	}
	s.inner.Receive(from, m)
}

// scopedCtx is the node.Context the wrapped handler sees: job-local self,
// translated sends. Now/After/Rand/Logf pass through to the real context.
type scopedCtx struct {
	node.Context
	s *Scoped
}

func (c *scopedCtx) Self() node.ID {
	_, local := Split(c.Context.Self())
	return local
}

func (c *scopedCtx) Send(to node.ID, m wire.Message) {
	s := c.s
	switch {
	case node.ServerIndex(to) >= 0:
		// Server-bound data traffic: global slot, enveloped for tenants
		// beyond the default namespace. Pushes may be quota-gated.
		out := m
		if s.job != 0 {
			out = msg.WrapJob(s.job, m)
		}
		if s.gate != nil && (m.Kind() == msg.KindPushReq || m.Kind() == msg.KindPushReqV2) {
			s.gate.send(to, m.Kind(), out)
			return
		}
		s.deliver(to, m.Kind(), out)
	case to == node.Scheduler:
		s.deliver(SchedulerID(s.job), m.Kind(), m)
	default:
		if i := node.WorkerIndex(to); i >= 0 {
			s.deliver(WorkerID(s.job, i), m.Kind(), m)
			return
		}
		s.deliver(to, m.Kind(), m)
	}
}

// deliver records the send against the job's accounting (inner kind,
// envelope bytes) and hands it to the real context.
func (s *Scoped) deliver(to node.ID, innerKind wire.Kind, out wire.Message) {
	ctx := s.sctx.Context
	s.acct.record(ctx.Self(), to, innerKind, wire.EncodedSize(out), ctx.Now())
	ctx.Send(to, out)
}

// pushGate enforces MaxInflightPush: pushes beyond the cap queue FIFO and
// are released one per PushAck. All mutation happens on the owning node's
// serialized callbacks; the Acct atomics exist only for lock-free gateway
// reads.
type pushGate struct {
	s        *Scoped
	max      int
	inflight int
	queue    []gatedPush
}

type gatedPush struct {
	to   node.ID
	kind wire.Kind
	out  wire.Message
}

func (g *pushGate) send(to node.ID, kind wire.Kind, out wire.Message) {
	if g.inflight >= g.max {
		g.s.acct.throttled.Add(1)
		g.queue = append(g.queue, gatedPush{to: to, kind: kind, out: owned(out)})
		return
	}
	g.inflight++
	g.s.acct.inflight.Store(int64(g.inflight))
	g.s.deliver(to, kind, out)
}

// owned returns a message that is safe to park. Job 0's pushes travel bare and
// their slices alias the worker's gradient and encoder buffers, which the
// worker reuses once the iteration ends, so a parked one gets its own copies;
// a tenant's envelope was marshaled when it was wrapped.
func owned(m wire.Message) wire.Message {
	switch p := m.(type) {
	case *msg.PushReq:
		c := *p
		c.Dense, c.SparseIdx, c.SparseVal = slices.Clone(p.Dense), slices.Clone(p.SparseIdx), slices.Clone(p.SparseVal)
		return &c
	case *msg.PushReqV2:
		c := *p
		c.Payload = slices.Clone(p.Payload)
		return &c
	}
	return m
}

func (g *pushGate) release() {
	if g.inflight > 0 {
		g.inflight--
	}
	if len(g.queue) > 0 && g.inflight < g.max {
		p := g.queue[0]
		g.queue = g.queue[1:]
		g.inflight++
		g.s.acct.inflight.Store(int64(g.inflight))
		g.s.deliver(p.to, p.kind, p.out)
		return
	}
	g.s.acct.inflight.Store(int64(g.inflight))
}
