package live

import (
	"sync"
	"sync/atomic"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

// item is one mailbox entry: a message for the handler's Receive, a timer
// armed with queue.after, or (fn) anything else that must run on the mailbox
// goroutine — Init, Do, and everything the in-memory Network queues. decoded
// marks a message the runtime decoded itself and takes back after Receive.
type item struct {
	from    node.ID
	msg     wire.Message
	decoded bool
	timer   *timer
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
type queue struct {
	mu      sync.Mutex
	wake    sync.Cond // L is &mu
	pending []item
	parked  bool // the consumer is in wake.Wait
	closed  bool
}

func newQueue() *queue {
	q := &queue{}
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

// take blocks until items are pending and returns all of them, in push order.
// spare, the caller's previous batch with its entries zeroed, becomes the new
// pending slice. ok is false once the queue is closed and drained.
func (q *queue) take(spare []item) (batch []item, ok bool) {
	if cap(spare) > maxSpareItems {
		spare = nil
	}
	q.mu.Lock()
	for len(q.pending) == 0 && !q.closed {
		q.parked = true
		q.wake.Wait()
		q.parked = false
	}
	batch, q.pending = q.pending, spare[:0]
	q.mu.Unlock()
	return batch, len(batch) > 0
}

// run is the consumer loop: it executes every item in order, messages through
// receive, until the queue is closed and drained.
func (q *queue) run(receive func(from node.ID, m wire.Message, decoded bool)) {
	var batch []item
	for {
		var ok bool
		if batch, ok = q.take(batch); !ok {
			return
		}
		for i := range batch {
			it := batch[i]
			batch[i] = item{} // the slice is reused; do not pin the message
			switch {
			case it.fn != nil:
				it.fn()
			case it.timer != nil:
				if !it.timer.canceled.Load() {
					it.timer.f()
				}
			default:
				receive(it.from, it.msg, it.decoded)
			}
		}
	}
}

// close stops the queue; queued items are still drained by the consumer.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake.Signal()
}

// timer is one pending queue.after callback.
type timer struct {
	q        *queue
	f        func()
	canceled atomic.Bool
}

func (t *timer) fire() { t.q.push(item{timer: t}) }

// after runs f on the consumer once d has passed, unless the returned cancel
// is called before the consumer reaches it — including after the wall-clock
// timer fired, while the callback waits in the mailbox. A timer still pending
// when the queue closes fires into the closed queue and is dropped.
func (q *queue) after(d time.Duration, f func()) node.CancelFunc {
	t := &timer{q: q, f: f}
	wall := time.AfterFunc(d, t.fire)
	return func() {
		t.canceled.Store(true)
		wall.Stop()
	}
}
