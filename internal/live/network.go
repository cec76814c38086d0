// Package live runs the same node.Handler state machines that the simulator
// runs, but on real goroutines and wall-clock time. Two runtimes are
// provided: Network (in-process, mailbox-to-mailbox) and TCPHost (one node
// per process/port over the TCP transport). Every node gets a mailbox
// goroutine that serializes its callbacks, preserving the execution model
// the handlers were written against.
package live

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// TransferRecorder mirrors des.TransferRecorder for live byte accounting.
type TransferRecorder interface {
	RecordTransfer(from, to node.ID, kind wire.Kind, bytes int, at time.Time)
}

// FaultAction tells the live network what to do with one message; the zero
// value delivers normally. It mirrors des.FaultAction so the same fault
// plans drive both runtimes.
type FaultAction struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration
}

// FaultHook decides the fault action for each message at send time. It is
// called from sender goroutines, possibly concurrently, and must be safe
// for concurrent use.
type FaultHook func(from, to node.ID, kind wire.Kind) FaultAction

// NetworkConfig configures an in-process live network.
type NetworkConfig struct {
	// Registry decodes messages. Required.
	Registry *wire.Registry
	// Seed derives per-node RNG streams.
	Seed int64
	// Transfer, if non-nil, receives one record per message.
	Transfer TransferRecorder
	// Fault, if non-nil, is consulted for every message.
	Fault FaultHook
	// Metrics, if non-nil, receives transport counters (messages delivered,
	// aggregate mailbox depth).
	Metrics *obs.Registry
	// Debug enables stderr logging from node Logf calls.
	Debug bool
}

// Network is an in-process live runtime: every added node runs a mailbox
// goroutine; sends are marshal + unmarshal through the wire codec (so byte
// accounting and value semantics match the simulator exactly).
type Network struct {
	cfg     NetworkConfig
	mu      sync.RWMutex
	nodes   map[node.ID]*liveNode
	started bool
	closed  bool
	wg      sync.WaitGroup

	// Optional transport telemetry (NetworkConfig.Metrics).
	metDelivered *obs.Counter
	metMailbox   *obs.Gauge
}

// NewNetwork builds an empty network.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("live: config requires a wire registry")
	}
	n := &Network{cfg: cfg, nodes: make(map[node.ID]*liveNode)}
	if reg := cfg.Metrics; reg != nil {
		n.metDelivered = reg.Counter("specsync_live_delivered_total", "Messages delivered to node mailboxes.")
		n.metMailbox = reg.Gauge("specsync_live_mailbox_depth", "Messages queued across all node mailboxes.")
	}
	return n, nil
}

// AddNode registers a handler. All nodes must be added before Start.
func (n *Network) AddNode(id node.ID, h node.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return fmt.Errorf("live: AddNode(%s) after Start", id)
	}
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("live: duplicate node %s", id)
	}
	if h == nil {
		return fmt.Errorf("live: nil handler for %s", id)
	}
	ln := &liveNode{
		net:     n,
		id:      id,
		handler: h,
		inbox:   newQueue(),
		rng:     rand.New(rand.NewSource(node.RandSeed(n.cfg.Seed, id))),
	}
	n.nodes[id] = ln
	return nil
}

// Start initializes every node (in sorted ID order, matching the simulator)
// and launches the mailbox loops.
func (n *Network) Start() {
	n.mu.Lock()
	if n.started {
		n.mu.Unlock()
		return
	}
	n.started = true
	ids := make([]node.ID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	nodes := make([]*liveNode, 0, len(ids))
	for _, id := range ids {
		nodes = append(nodes, n.nodes[id])
	}
	n.mu.Unlock()

	// Init runs on the mailbox goroutine as its first item, so handlers can
	// send from Init and still have every peer's mailbox accepting.
	for _, ln := range nodes {
		ln := ln
		gen := ln.currentGen()
		ln.inbox.push(item{fn: func() {
			if h, ok := ln.alive(gen); ok {
				h.Init(ln)
			}
		}})
	}
	for _, ln := range nodes {
		ln := ln
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ln.inbox.run(nil) // every entry is a func
		}()
	}
}

// Join registers a handler mid-run (elastic scale-up): its mailbox loop
// starts immediately with Init as the first item. Use AddNode before Start;
// Join after.
func (n *Network) Join(id node.ID, h node.Handler) error {
	if h == nil {
		return fmt.Errorf("live: nil handler for %s", id)
	}
	n.mu.Lock()
	if !n.started || n.closed {
		n.mu.Unlock()
		return fmt.Errorf("live: Join(%s) outside a running network", id)
	}
	if _, dup := n.nodes[id]; dup {
		n.mu.Unlock()
		return fmt.Errorf("live: duplicate node %s", id)
	}
	ln := &liveNode{
		net:     n,
		id:      id,
		handler: h,
		inbox:   newQueue(),
		rng:     rand.New(rand.NewSource(node.RandSeed(n.cfg.Seed, id))),
	}
	n.nodes[id] = ln
	n.wg.Add(1)
	n.mu.Unlock()

	gen := ln.currentGen()
	ln.inbox.push(item{fn: func() {
		if h2, ok := ln.alive(gen); ok {
			h2.Init(ln)
		}
	}})
	go func() {
		defer n.wg.Done()
		ln.inbox.run(nil)
	}()
	return nil
}

// Close stops all mailboxes and waits for their goroutines to exit. Pending
// timers fire into the closed mailboxes and are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*liveNode, 0, len(n.nodes))
	for _, ln := range n.nodes {
		nodes = append(nodes, ln)
	}
	n.mu.Unlock()

	for _, ln := range nodes {
		ln.inbox.close()
	}
	n.wg.Wait()
}

// Inject delivers a message to a node as if sent by from. Drivers use it to
// start/stop training from outside the node graph.
func (n *Network) Inject(from, to node.ID, m wire.Message) error {
	n.mu.RLock()
	dst, ok := n.nodes[to]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("live: unknown node %s", to)
	}
	data := wire.Marshal(m)
	decoded, err := n.cfg.Registry.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("live: inject: %w", err)
	}
	gen := dst.currentGen()
	dst.inbox.push(item{fn: func() {
		if h, ok := dst.alive(gen); ok {
			h.Receive(from, decoded)
		}
	}})
	return nil
}

// Crash marks a node as failed: messages addressed to it are lost, and its
// pending timers and queued deliveries to the old incarnation are discarded
// when the mailbox reaches them. Revive it with Restart.
func (n *Network) Crash(id node.ID) error {
	n.mu.RLock()
	ln, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("live: Crash(%s): unknown node", id)
	}
	ln.stateMu.Lock()
	if ln.down {
		ln.stateMu.Unlock()
		return fmt.Errorf("live: Crash(%s): already down", id)
	}
	ln.down = true
	ln.gen++
	ln.stateMu.Unlock()
	return nil
}

// Restart revives a crashed node as a fresh incarnation. A non-nil handler
// replaces the state machine (crash loses state); nil keeps the existing
// handler object (for state restored out of band). Init runs as the next
// mailbox item.
func (n *Network) Restart(id node.ID, h node.Handler) error {
	n.mu.RLock()
	ln, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("live: Restart(%s): unknown node", id)
	}
	ln.stateMu.Lock()
	if !ln.down {
		ln.stateMu.Unlock()
		return fmt.Errorf("live: Restart(%s): not down", id)
	}
	if h != nil {
		ln.handler = h
	}
	ln.down = false
	ln.gen++
	gen := ln.gen
	ln.stateMu.Unlock()
	ln.inbox.push(item{fn: func() {
		if h2, ok := ln.alive(gen); ok {
			h2.Init(ln)
		}
	}})
	return nil
}

// Quiesce blocks until id's event loop has finished every callback enqueued
// before this call, including one mid-execution. After Crash(id) + Quiesce(id)
// the node's handler is guaranteed to run no further callbacks, so its state
// may be handed to a new owner — replica promotion reuses the caught-up
// backup's handler object under the shard's primary ID.
func (n *Network) Quiesce(id node.ID) error {
	n.mu.RLock()
	ln, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("live: Quiesce(%s): unknown node", id)
	}
	done := make(chan struct{})
	if !ln.inbox.push(item{fn: func() { close(done) }}) {
		return nil // queue closed: the loop has already drained and exited
	}
	<-done
	return nil
}

// Down reports whether a node is currently crashed.
func (n *Network) Down(id node.ID) bool {
	n.mu.RLock()
	ln, ok := n.nodes[id]
	n.mu.RUnlock()
	if !ok {
		return false
	}
	ln.stateMu.Lock()
	defer ln.stateMu.Unlock()
	return ln.down
}

// send routes a message between nodes (marshal at the sender, decode at the
// receiver's mailbox), applying the fault hook.
func (n *Network) send(from, to node.ID, m wire.Message) {
	n.mu.RLock()
	dst, ok := n.nodes[to]
	n.mu.RUnlock()
	if !ok {
		if n.cfg.Debug {
			fmt.Fprintf(os.Stderr, "live: %s -> unknown node %s dropped\n", from, to)
		}
		return
	}
	var act FaultAction
	if n.cfg.Fault != nil {
		act = n.cfg.Fault(from, to, m.Kind())
	}
	if act.Drop {
		return
	}
	data := wire.Marshal(m)
	copies := 1
	if act.Duplicate {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		if n.cfg.Transfer != nil {
			n.cfg.Transfer.RecordTransfer(from, to, m.Kind(), len(data), time.Now())
		}
		deliver := func() { dst.enqueue(from, to, data, n) }
		if act.Delay > 0 {
			time.AfterFunc(act.Delay, deliver)
		} else {
			deliver()
		}
	}
}

// enqueue queues one encoded message for delivery, gated on the receiver
// still being the same live incarnation when the mailbox reaches it.
func (ln *liveNode) enqueue(from, to node.ID, data []byte, n *Network) {
	gen := ln.currentGen()
	n.metMailbox.Add(1)
	ln.inbox.push(item{fn: func() {
		n.metMailbox.Add(-1)
		h, ok := ln.alive(gen)
		if !ok {
			return // receiver crashed (or restarted) after the send
		}
		decoded, err := n.cfg.Registry.Unmarshal(data)
		if err != nil {
			if n.cfg.Debug {
				fmt.Fprintf(os.Stderr, "live: decode from %s to %s: %v\n", from, to, err)
			}
			return
		}
		n.metDelivered.Inc()
		h.Receive(from, decoded)
		n.cfg.Registry.Recycle(decoded)
	}})
}

// liveNode implements node.Context over a mailbox and real timers.
type liveNode struct {
	net   *Network
	id    node.ID
	inbox *queue
	rng   *rand.Rand

	// stateMu guards the crash/restart state. down marks the node failed;
	// gen counts incarnations, so queued deliveries and timers from a
	// previous life are discarded (see enqueue / alive).
	stateMu sync.Mutex
	handler node.Handler
	down    bool
	gen     uint64
}

// currentGen reads the node's incarnation counter.
func (ln *liveNode) currentGen() uint64 {
	ln.stateMu.Lock()
	defer ln.stateMu.Unlock()
	return ln.gen
}

// alive returns the handler iff the node is up and still incarnation gen.
func (ln *liveNode) alive(gen uint64) (node.Handler, bool) {
	ln.stateMu.Lock()
	defer ln.stateMu.Unlock()
	if ln.down || ln.gen != gen {
		return nil, false
	}
	return ln.handler, true
}

var _ node.Context = (*liveNode)(nil)

func (ln *liveNode) Self() node.ID    { return ln.id }
func (ln *liveNode) Now() time.Time   { return time.Now() }
func (ln *liveNode) Rand() *rand.Rand { return ln.rng }

func (ln *liveNode) Send(to node.ID, m wire.Message) {
	ln.net.send(ln.id, to, m)
}

func (ln *liveNode) After(d time.Duration, f func()) node.CancelFunc {
	gen := ln.currentGen()
	return ln.inbox.after(d, func() {
		if _, ok := ln.alive(gen); ok { // else: a crashed or previous incarnation's timer
			f()
		}
	})
}

func (ln *liveNode) Logf(format string, args ...any) {
	if ln.net.cfg.Debug {
		fmt.Fprintf(os.Stderr, "[live] %-10s "+format+"\n", append([]any{ln.id}, args...)...)
	}
}
