package live

import (
	"runtime"
	"testing"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// pullKeeper passes every PullResp it is handed to the test.
type pullKeeper struct{ got chan *msg.PullResp }

func (*pullKeeper) Init(node.Context) {}
func (k *pullKeeper) Receive(_ node.ID, m wire.Message) {
	k.got <- m.(*msg.PullResp)
}

// TestTCPHostRecyclesOnlyWhatItDecoded: a message the host decoded (here from
// a loopback Send; the transport's deliveries take the same path) goes back to
// the pool when Receive returns, so the next one is decoded into it. An
// injected message stays the caller's: it may alias the caller's buffers, and
// pooling it would let a later frame be decoded over them.
func TestTCPHostRecyclesOnlyWhatItDecoded(t *testing.T) {
	// One P, so that the mailbox goroutine's Put lands where Send's Get looks.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := &pullKeeper{got: make(chan *msg.PullResp, 1)}
	host := newTestHost(t, node.ServerID(0), k)
	defer host.Close()
	settle := func() { host.Do(func() {}) } // Receive has returned and the recycle step has run

	injected := &msg.PullResp{Seq: 1, Values: []float64{1, 2, 3}}
	host.Inject(node.WorkerID(0), injected)
	if got := <-k.got; got != injected {
		t.Fatal("the injected message was not delivered as is")
	}
	settle()

	// sync.Pool may drop a Put (it does so at random under the race detector),
	// hence "at least once in twenty".
	var prev *msg.PullResp
	reused := 0
	for i := 0; i < 20; i++ {
		host.Send(host.Self(), &msg.PullResp{Seq: uint64(i + 2), Values: []float64{4, 5, 6}})
		got := <-k.got
		settle()
		if got == injected {
			t.Fatal("an injected message came back out of the pool")
		}
		if got == prev {
			reused++
		}
		prev = got
	}
	if injected.Values[0] != 1 || injected.Values[2] != 3 {
		t.Errorf("the caller's injected message now reads %v", injected.Values)
	}
	if reused == 0 {
		t.Error("no decoded message was handed back after Receive")
	}
}
