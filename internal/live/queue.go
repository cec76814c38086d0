package live

import (
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

// item is one mailbox entry: a message for the handler's Receive, or (fn)
// anything else that must run on the mailbox goroutine — Init, Do, and
// everything the in-memory Network queues. decoded marks a message the runtime
// decoded itself and takes back after Receive.
type item struct {
	from    node.ID
	msg     wire.Message
	decoded bool
	fn      func()
}

// maxSpareItems bounds the drained batch a queue keeps for reuse, so one
// burst does not pin its backlog's memory for the mailbox's lifetime.
const maxSpareItems = 4096

// queue is an unbounded MPSC mailbox. Unboundedness matters: two nodes that
// send to each other through bounded channels can deadlock when both buffers
// fill; mailboxes must always accept. For the same reason handlers run on the
// queue's one consumer and never on a transport reader goroutine: a reader
// only ever appends here, so two nodes blocked in Write to each other still
// drain their sockets.
//
// Producers append to pending; the consumer swaps the whole slice out under
// one lock acquisition and hands the previous, drained one back as the next
// pending, so steady-state traffic allocates nothing.
//
// The queue also holds the host's timers (after): keys in a deadline-ordered
// heap, callbacks in a slab whose vacated slots are reused, and one wall-clock
// timer set for the earliest deadline, whose firing only wakes the consumer.
// A cancelled timer's key stays in the heap until it falls due and is popped.
type queue struct {
	mu      sync.Mutex
	wake    sync.Cond // L is &mu
	pending []item
	parked  bool // the consumer is in wake.Wait
	closed  bool

	epoch  time.Time // deadlines are offsets from it on the monotonic clock
	timers timerHeap
	slab   []timerSlot
	free   []int32
	seq    uint64
	wall   *time.Timer // nil until the first after
	due    bool        // wall fired since the consumer last took a batch
}

func newQueue() *queue {
	q := &queue{epoch: time.Now()}
	q.wake.L = &q.mu
	return q
}

// push enqueues it. It reports false if the queue is closed.
func (q *queue) push(it item) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.pending = append(q.pending, it)
	parked := q.parked
	q.mu.Unlock()
	if parked {
		q.wake.Signal()
	}
	return true
}

// take blocks until items are pending or the wall-clock timer has fired, and
// returns the items, in push order, and whether timers may be due. spare, the
// caller's previous batch with its entries zeroed, becomes the new pending
// slice. ok is false once the queue is closed and drained.
func (q *queue) take(spare []item) (batch []item, due, ok bool) {
	if cap(spare) > maxSpareItems {
		spare = nil
	}
	q.mu.Lock()
	for len(q.pending) == 0 && !q.due && !q.closed {
		q.parked = true
		q.wake.Wait()
		q.parked = false
	}
	batch, q.pending = q.pending, spare[:0]
	due, q.due = q.due && !q.closed, false
	ok = len(batch) > 0 || due
	q.mu.Unlock()
	return batch, due, ok
}

// run is the consumer loop: it executes every item in order, messages through
// receive, then the timers that are due, until the queue is closed and
// drained.
func (q *queue) run(receive func(from node.ID, m wire.Message, decoded bool)) {
	var batch []item
	for {
		var due, ok bool
		if batch, due, ok = q.take(batch); !ok {
			return
		}
		for i := range batch {
			it := batch[i]
			batch[i] = item{} // the slice is reused; do not pin the message
			if it.fn != nil {
				it.fn()
			} else {
				receive(it.from, it.msg, it.decoded)
			}
		}
		if due {
			q.runDue()
		}
	}
}

// close stops the queue; queued items are still drained by the consumer, and
// pending timers are dropped.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	if q.wall != nil {
		q.wall.Stop()
	}
	q.timers = nil
	clear(q.slab)
	q.mu.Unlock()
	q.wake.Signal()
}

// timerKey is what the timer heap orders: (at, seq) is a total order, so
// timers run in deadline order and in arming order on equal deadlines.
type timerKey struct {
	at   time.Duration // deadline, as an offset from the queue's epoch
	seq  uint64
	slot int32 // the callback in queue.slab
}

func (k timerKey) before(o timerKey) bool {
	return k.at < o.at || k.at == o.at && k.seq < o.seq
}

// timerSlot is one pending callback; fn is nil once cancelled. seq names the
// occupant to its cancel handle.
type timerSlot struct {
	seq uint64
	fn  func()
}

// timerHeap is a binary min-heap of keys.
type timerHeap []timerKey

func (h *timerHeap) push(k timerKey) {
	s := append(*h, k)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
	*h = s
}

func (h *timerHeap) pop() timerKey {
	s := *h
	n := len(s) - 1
	top, k := s[0], s[n]
	s = s[:n]
	*h = s
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(k) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = k
	}
	return top
}

// noCancel is what after returns once the queue is closed.
func noCancel() {}

// after runs f on the consumer once d has passed, unless the returned cancel
// is called before the consumer reaches it — including after the deadline,
// while the callback waits for the consumer. Arming costs the cancel handle
// and nothing else once the heap and slab have grown to the host's number of
// pending timers. A timer still pending when the queue closes never runs.
func (q *queue) after(d time.Duration, f func()) node.CancelFunc {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return noCancel
	}
	seq := q.seq
	q.seq++
	slot := int32(len(q.slab))
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
		q.slab[slot] = timerSlot{seq: seq, fn: f}
	} else {
		q.slab = append(q.slab, timerSlot{seq: seq, fn: f})
	}
	q.timers.push(timerKey{at: time.Since(q.epoch) + d, seq: seq, slot: slot})
	if q.timers[0].seq == seq { // the new earliest deadline
		q.setWall(d)
	}
	return func() { q.cancel(slot, seq) }
}

// setWall sets the wall-clock timer to fire in d. Callers hold mu.
func (q *queue) setWall(d time.Duration) {
	if q.wall == nil {
		q.wall = time.AfterFunc(d, q.fire)
	} else {
		q.wall.Reset(d)
	}
}

// fire is the wall-clock timer's callback: it only wakes the consumer, which
// pops what is due. A stale firing (the earliest deadline moved) costs one
// empty pass.
func (q *queue) fire() {
	q.mu.Lock()
	q.due = true
	parked := q.parked
	q.mu.Unlock()
	if parked {
		q.wake.Signal()
	}
}

func (q *queue) cancel(slot int32, seq uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(slot) >= len(q.slab) || q.slab[slot].seq != seq || q.slab[slot].fn == nil {
		return // already run, cancelled, or dropped by close
	}
	q.slab[slot].fn = nil
}

// runDue runs, on the consumer, every timer whose deadline has passed, in
// deadline order. The lock is dropped around each callback, so a callback may
// arm or cancel timers; one armed already due waits for the next pass.
func (q *queue) runDue() {
	now := time.Since(q.epoch)
	for {
		f := q.popDue(now)
		if f == nil {
			return
		}
		f()
	}
}

// popDue removes the earliest timer due by now and returns its callback,
// passing over cancelled ones. When none is left due it sets the wall-clock
// timer for the next deadline and returns nil.
func (q *queue) popDue(now time.Duration) func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.timers) > 0 {
		k := q.timers[0]
		if k.at > now {
			q.setWall(k.at - time.Since(q.epoch))
			return nil
		}
		q.timers.pop()
		f := q.slab[k.slot].fn
		q.slab[k.slot] = timerSlot{}
		q.free = append(q.free, k.slot)
		if f != nil {
			return f
		}
	}
	return nil
}
