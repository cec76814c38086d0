package jobs

import (
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// ServerHost multiplexes one shared server slot across tenants: each job that
// owns a range on this slot mounts its own ps.Server instance. Enveloped
// traffic (JobMsg) dispatches by job ID; bare data traffic belongs to the
// default tenant (job 0, the legacy namespace). Tenants see the original
// global sender IDs and reply to them directly — replies are never enveloped,
// because a worker ID is already unique fleet-wide.
type ServerHost struct {
	reg     *wire.Registry
	ctx     node.Context
	tenants map[int]*tenant
}

type tenant struct {
	h    node.Handler
	acct *Acct
}

// NewServerHost builds an empty host; the registry decodes JobMsg payloads.
func NewServerHost(reg *wire.Registry) *ServerHost {
	return &ServerHost{reg: reg, tenants: make(map[int]*tenant)}
}

// Init implements node.Handler.
func (h *ServerHost) Init(ctx node.Context) {
	h.ctx = ctx
	for job, t := range h.tenants {
		t.h.Init(&tenantCtx{Context: ctx, acct: t.acct, job: job})
	}
}

// AddTenant mounts one job's shard server on this slot. Tenants added after
// the host initialized (the normal fleet path: jobs join at admission ticks)
// are initialized immediately.
func (h *ServerHost) AddTenant(job int, handler node.Handler, acct *Acct) {
	h.tenants[job] = &tenant{h: handler, acct: acct}
	if h.ctx != nil {
		handler.Init(&tenantCtx{Context: h.ctx, acct: acct, job: job})
	}
}

// RemoveTenant unmounts a retired job's shard (janitor cleanup). Messages
// still in flight to it are dropped with a debug log.
func (h *ServerHost) RemoveTenant(job int) {
	delete(h.tenants, job)
}

// Tenant returns one job's mounted handler, or nil.
func (h *ServerHost) Tenant(job int) node.Handler {
	t := h.tenants[job]
	if t == nil {
		return nil
	}
	return t.h
}

// Tenants returns the number of mounted tenants.
func (h *ServerHost) Tenants() int { return len(h.tenants) }

// Receive implements node.Handler: unwrap envelopes to their tenant, route
// bare traffic to the default tenant.
func (h *ServerHost) Receive(from node.ID, m wire.Message) {
	if env, ok := m.(*msg.JobMsg); ok {
		t := h.tenants[int(env.Job)]
		if t == nil {
			h.ctx.Logf("jobs: no tenant %d mounted, dropping %d-byte envelope from %s", env.Job, len(env.Payload), from)
			return
		}
		inner, err := msg.UnwrapJob(h.reg, env)
		if err != nil {
			h.ctx.Logf("jobs: %v (from %s)", err, from)
			return
		}
		t.h.Receive(from, inner)
		h.reg.Recycle(inner) // decoded here, so taken back here (node.Handler)
		return
	}
	if t := h.tenants[0]; t != nil {
		t.h.Receive(from, m)
		return
	}
	h.ctx.Logf("jobs: no default tenant, dropping %T from %s", m, from)
}

// tenantCtx is the context a tenant shard sees: identical to the host's
// except that sends are recorded against the owning job's accounting.
type tenantCtx struct {
	node.Context
	acct *Acct
	job  int
}

func (c *tenantCtx) Send(to node.ID, m wire.Message) {
	c.acct.record(c.Context.Self(), to, m.Kind(), wire.EncodedSize(m), c.Context.Now())
	c.Context.Send(to, m)
}
