package live

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// TestQueueSteadyStateAllocatesNothing: once the two batch slices have grown
// to the traffic's depth, push and take only swap them.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := newQueue()
	var m wire.Message = &msg.Notify{Iter: 1}
	var batch []item
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.push(item{from: "worker/0", msg: m})
		}
		batch, _, _ = q.take(batch)
		if len(batch) != 8 {
			t.Fatalf("took %d of 8 items", len(batch))
		}
		clear(batch)
	}
	cycle()
	cycle() // both slices are now grown
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("push/take in steady state: %.1f allocs/op, want 0", allocs)
	}
}

func TestQueueDropsAnOversizedSpareBatch(t *testing.T) {
	q := newQueue()
	q.push(item{fn: func() {}})
	batch, _, ok := q.take(make([]item, 0, maxSpareItems+1))
	if !ok || len(batch) != 1 {
		t.Fatalf("take = %d items, ok %v", len(batch), ok)
	}
	if cap(q.pending) > maxSpareItems {
		t.Errorf("the queue kept a spare batch of cap %d", cap(q.pending))
	}
}

// signalHandler reports every Receive on a channel.
type signalHandler struct{ got chan int64 }

func (*signalHandler) Init(node.Context) {}
func (h *signalHandler) Receive(_ node.ID, m wire.Message) {
	h.got <- m.(*msg.Notify).Iter
}

func newTestHost(t testing.TB, id node.ID, h node.Handler) *TCPHost {
	t.Helper()
	host, err := NewTCPHost(TCPHostConfig{ID: id, Handler: h, ListenAddr: "127.0.0.1:0", Registry: msg.Registry(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// TestTCPHostInjectToReceiveAllocatesNothing pins the typed mailbox entry:
// handing a decoded message to the handler costs no closure.
func TestTCPHostInjectToReceiveAllocatesNothing(t *testing.T) {
	h := &signalHandler{got: make(chan int64, 1)}
	host := newTestHost(t, node.ServerID(0), h)
	defer host.Close()
	var m wire.Message = &msg.Notify{Iter: 3}
	from := node.WorkerID(0)
	handoff := func() {
		host.Inject(from, m)
		<-h.got
	}
	handoff()
	if allocs := testing.AllocsPerRun(500, handoff); allocs != 0 {
		t.Errorf("Inject -> Receive: %.1f allocs/op, want 0", allocs)
	}
}

// orderHandler checks that each sender's messages arrive in the order sent
// and that nothing runs once closed is set.
type orderHandler struct {
	t      *testing.T
	ctx    node.Context
	closed atomic.Bool
	next   map[node.ID]int64 // mailbox goroutine only
	total  atomic.Int64
	timers atomic.Int64
}

func (h *orderHandler) Init(ctx node.Context) { h.ctx = ctx }

func (h *orderHandler) Receive(from node.ID, m wire.Message) {
	if h.closed.Load() {
		h.t.Error("Receive ran after Close returned")
	}
	n := m.(*msg.Notify).Iter
	if n != h.next[from] {
		h.t.Errorf("%s: got message %d, want %d", from, n, h.next[from])
	}
	h.next[from] = n + 1
	h.total.Add(1)
	if n%16 == 0 { // timers armed and cancelled from the mailbox goroutine
		cancel := h.ctx.After(time.Duration(n%3)*time.Millisecond, h.onTimer)
		if n%32 == 0 {
			cancel()
		}
	}
}

func (h *orderHandler) onTimer() {
	if h.closed.Load() {
		h.t.Error("a timer ran after Close returned")
	}
	h.timers.Add(1)
}

// TestTCPHostConcurrentSendersDoAfterAndClose: eight hosts send to one over
// real sockets while other goroutines call Do and After on the receiver.
// Per-sender FIFO order must hold, and a Close in the middle of the traffic
// must return (no sender, Do or timer may wedge it) and deliver nothing after.
func TestTCPHostConcurrentSendersDoAfterAndClose(t *testing.T) {
	const senders, perSender = 8, 400
	h := &orderHandler{t: t, next: map[node.ID]int64{}}
	recv := newTestHost(t, node.ServerID(0), h)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < senders; i++ {
		s := newTestHost(t, node.WorkerID(i), &signalHandler{got: make(chan int64, 1)})
		defer s.Close()
		s.AddPeer(node.ServerID(0), recv.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Phase one is counted; after it the sender keeps the socket
			// busy until the receiver is closed under it.
			for n := int64(0); ; n++ {
				if n >= perSender {
					select {
					case <-stop:
						return
					default:
					}
				}
				s.Send(node.ServerID(0), &msg.Notify{Iter: n})
			}
		}()
	}
	var dos atomic.Int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recv.Do(func() {
					if h.closed.Load() {
						t.Error("Do ran its func after Close returned")
					}
					dos.Add(1)
				})
				recv.After(time.Millisecond, h.onTimer)
			}
		}()
	}

	waitUntil(t, func() bool { return h.total.Load() >= senders*perSender && dos.Load() > 0 && h.timers.Load() > 0 })

	closed := make(chan struct{})
	go func() {
		recv.Close()
		h.closed.Store(true)
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while senders, Do and After were active")
	}
	time.Sleep(20 * time.Millisecond) // timers armed before Close fire into the closed mailbox
	close(stop)
	wg.Wait()
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTimerCancelledAfterFiringDoesNotRun: a cancel that loses the race with
// the wall clock but beats the consumer must still win — handlers cancel a
// timeout from the very callback that makes it moot.
func TestTimerCancelledAfterFiringDoesNotRun(t *testing.T) {
	q := newQueue()
	ran := false
	cancel := q.after(0, func() { ran = true })
	deadline := time.Now().Add(5 * time.Second)
	for { // wait for the wall-clock timer to mark the timer due
		q.mu.Lock()
		due := q.due
		q.mu.Unlock()
		if due {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timer never fired")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	q.runDue()
	if ran {
		t.Error("a cancelled timer's callback ran")
	}
	if len(q.timers) != 0 || len(q.free) != len(q.slab) {
		t.Errorf("the pass left %d keys and %d of %d slots in use", len(q.timers), len(q.slab)-len(q.free), len(q.slab))
	}
}

// TestAfterAllocations pins a host timer at one object, its cancel handle,
// once the heap and the slab have grown: armed, then run or cancelled, and
// popped when due.
func TestAfterAllocations(t *testing.T) {
	q := newQueue()
	defer q.close()
	f := func() {}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"run", func() { q.after(0, f); q.runDue() }},
		{"cancel at the deadline", func() { q.after(0, f)(); q.runDue() }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.op); allocs > 1 {
			t.Errorf("after, %s: %.1f allocs/op, want at most 1", c.name, allocs)
		}
	}
}

// TestHostTimerHeapOrder: keys pushed in any order pop by deadline, and by
// arming order on equal deadlines.
func TestHostTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timerHeap
	for round := 0; round < 20; round++ {
		var want []timerKey
		for seq := uint64(0); seq < 64; seq++ {
			k := timerKey{at: time.Duration(rng.Intn(8)), seq: seq, slot: int32(seq)}
			h.push(k)
			want = append(want, k)
			if rng.Intn(4) == 0 { // interleave pops with pushes
				slices.SortFunc(want, deadlineThenArming)
				if got := h.pop(); got != want[0] {
					t.Fatalf("round %d: popped %+v, want %+v", round, got, want[0])
				}
				want = want[1:]
			}
		}
		slices.SortFunc(want, deadlineThenArming)
		for _, w := range want {
			if got := h.pop(); got != w {
				t.Fatalf("round %d: popped %+v, want %+v", round, got, w)
			}
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d keys left", round, len(h))
		}
	}
}

// deadlineThenArming is the order TestHostTimerHeapOrder expects, written
// apart from the queue's own comparison.
func deadlineThenArming(a, b timerKey) int {
	switch {
	case a.at != b.at:
		return int(a.at - b.at)
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// TestHostTimersRunInDeadlineOrder arms timers out of deadline order and with
// equal delays on a running mailbox: they run in deadline order, first armed
// first on equal deadlines; a timer cancelled before it runs — by the test,
// or by an earlier callback of the same pass — never runs; and closing the
// queue drops the timers still pending. The expected order is read off the
// keys the queue armed, not the nominal delays, so a stall between two arms
// (which moves the later one's deadline) cannot fail the test.
func TestHostTimersRunInDeadlineOrder(t *testing.T) {
	q := newQueue()
	var got []string // consumer goroutine only, read after run returns
	names := map[uint64]string{}
	delays := map[uint64]time.Duration{}
	armFn := func(name string, d time.Duration, f func()) node.CancelFunc {
		names[q.seq], delays[q.seq] = name, d // the seq after gives this timer
		return q.after(d, f)
	}
	arm := func(name string, d time.Duration) node.CancelFunc {
		return armFn(name, d, func() { got = append(got, name) })
	}
	ms := time.Millisecond
	arm("40", 40*ms)
	arm("10a", 10*ms)
	arm("30", 30*ms)
	arm("10b", 10*ms)
	arm("20a", 20*ms)
	cancelled := arm("15", 15*ms)
	arm("20b", 20*ms)
	var victim node.CancelFunc
	armFn("20c", 20*ms, func() { got = append(got, "20c"); victim() })
	victim = arm("20d", 20*ms)
	arm("10c", 10*ms)
	arm("late", time.Hour)
	cancelled()

	// Every deadline is its arming time plus its delay, and arming times
	// never go back.
	keys := slices.Clone(q.timers)
	slices.SortFunc(keys, func(a, b timerKey) int { return int(a.seq) - int(b.seq) })
	if len(keys) != len(names) {
		t.Fatalf("%d keys armed, want %d", len(keys), len(names))
	}
	for i := 1; i < len(keys); i++ {
		if prev, k := keys[i-1], keys[i]; k.at-delays[k.seq] < prev.at-delays[prev.seq] {
			t.Fatalf("timer %s armed at %v, before timer %s (%v)", names[k.seq],
				k.at-delays[k.seq], names[prev.seq], prev.at-delays[prev.seq])
		}
	}
	slices.SortFunc(keys, deadlineThenArming)
	var want []string
	for _, k := range keys {
		switch name := names[k.seq]; name {
		case "15", "20d", "late": // cancelled by the test, by 20c, not due in the test
		default:
			want = append(want, name)
		}
	}

	done := make(chan struct{})
	go func() {
		q.run(nil)
		close(done)
	}()
	ran := make(chan struct{})
	q.after(60*ms, func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("the timers never ran")
	}
	q.close()
	<-done

	if !slices.Equal(got, want) {
		t.Errorf("timers ran as %v, want %v", got, want)
	}
	if cancel := q.after(0, func() { t.Error("a timer armed on a closed queue ran") }); cancel == nil {
		t.Error("after on a closed queue returned a nil cancel")
	}
	if len(q.timers) != 0 {
		t.Errorf("the closed queue still holds %d timers", len(q.timers))
	}
}

// BenchmarkHostAfter measures a host timer on the mailbox goroutine: a chain
// of timers each armed by the previous one's callback (arm → wall clock →
// run, a worker's compute timer), and a timer armed, cancelled and popped
// once it falls due (a scheduler speculation window closed early).
func BenchmarkHostAfter(b *testing.B) {
	b.Run("run", func(b *testing.B) {
		host := newTestHost(b, node.ServerID(0), &signalHandler{})
		defer host.Close()
		done := make(chan struct{})
		n := 0
		var tick func()
		tick = func() {
			if n++; n >= b.N {
				close(done)
				return
			}
			host.After(0, tick)
		}
		b.ReportAllocs()
		b.ResetTimer()
		host.After(0, tick)
		<-done
	})
	b.Run("cancel", func(b *testing.B) {
		q := newQueue()
		defer q.close()
		f := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.after(0, f)()
			q.runDue()
		}
	})
}

// BenchmarkMailboxHandoff measures TCPHost's socket-side hand-off without the
// socket: Inject on one goroutine to Receive on the mailbox goroutine, one
// message at a time (the wake-up cost) and in bursts (the batch swap).
func BenchmarkMailboxHandoff(b *testing.B) {
	for _, burst := range []int{1, 64} {
		b.Run(fmt.Sprintf("burst%d", burst), func(b *testing.B) {
			h := &signalHandler{got: make(chan int64, burst)}
			host := newTestHost(b, node.ServerID(0), h)
			defer host.Close()
			var m wire.Message = &msg.Notify{Iter: 1}
			from := node.WorkerID(0)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += burst {
				for i := 0; i < burst; i++ {
					host.Inject(from, m)
				}
				for i := 0; i < burst; i++ {
					<-h.got
				}
			}
		})
	}
}
