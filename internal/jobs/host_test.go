package jobs

import (
	"runtime"
	"testing"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// blockAddr records where each delivered push's block was stored.
type blockAddr struct{ seen []*float64 }

func (*blockAddr) Init(node.Context) {}
func (h *blockAddr) Receive(_ node.ID, m wire.Message) {
	d := m.(*msg.PushReq).Dense
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		panic("tenant saw a corrupted block")
	}
	h.seen = append(h.seen, &d[0])
}

// TestServerHostHandsInnerMessageBack: the host decodes an envelope's inner
// message itself, so the runtime that delivered the envelope never sees it;
// the host takes it back once the tenant's Receive returns, and later
// envelopes are decoded into it. (sync.Pool may drop a Put — it does so at
// random under the race detector — hence "at least once in twenty".)
func TestServerHostHandsInnerMessageBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // Put and Get on the same P
	h := NewServerHost(msg.Registry())
	tenant := &blockAddr{}
	h.AddTenant(2, tenant, NewAcct())
	h.Init(&fakeCtx{self: node.ServerID(0)})
	for i := 0; i < 20; i++ {
		h.Receive(WorkerID(2, 1), msg.WrapJob(2, &msg.PushReq{Seq: uint64(i), Dense: []float64{1, 2}}))
	}
	reused := 0
	for i := 1; i < len(tenant.seen); i++ {
		if tenant.seen[i] == tenant.seen[i-1] {
			reused++
		}
	}
	if len(tenant.seen) != 20 || reused == 0 {
		t.Errorf("%d deliveries, %d decoded into the previous one's storage; want 20 and some", len(tenant.seen), reused)
	}
}
