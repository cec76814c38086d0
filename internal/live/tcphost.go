// Package live runs the same node.Handler state machines that the simulator
// runs, but on real goroutines, sockets and wall-clock time: a TCPHost hosts
// one node over the TCP transport, one per process in a deployment
// (cmd/specsync-node), and a Loopback is a set of them on 127.0.0.1 in one
// process. Every host gets a mailbox goroutine that serializes its callbacks,
// preserving the execution model the handlers were written against.
package live

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/transport"
	"specsync/internal/wire"
)

// TCPHostConfig configures a single node hosted over the TCP transport,
// typically one per process (cmd/specsync-node).
type TCPHostConfig struct {
	// ID is this node's identity.
	ID node.ID
	// Handler is the node logic.
	Handler node.Handler
	// ListenAddr is where peers reach this node (e.g. "127.0.0.1:7000").
	ListenAddr string
	// Peers maps every other node's ID to its address.
	Peers map[node.ID]string
	// Registry decodes messages. Required.
	Registry *wire.Registry
	// Seed derives this node's RNG stream.
	Seed int64
	// Transfer, if non-nil, records outbound bytes.
	Transfer transport.TransferRecorder
	// Metrics, if non-nil, receives transport counters (frames received,
	// mailbox depth, send failures).
	Metrics *obs.Registry
	// Debug enables stderr logging.
	Debug bool
}

// TCPHost runs one node.Handler over TCP: inbound frames are enqueued onto
// the node's mailbox, preserving the serialized-callback execution model.
type TCPHost struct {
	cfg   TCPHostConfig
	tr    *transport.TCP
	inbox *queue
	rng   *rand.Rand
	wg    sync.WaitGroup

	// Optional transport telemetry (TCPHostConfig.Metrics).
	metReceived *obs.Counter
	metMailbox  *obs.Gauge
	metSendFail *obs.Counter
}

var _ node.Context = (*TCPHost)(nil)

// NewTCPHost opens the transport and starts the mailbox. The handler's Init
// runs as the first mailbox item.
func NewTCPHost(cfg TCPHostConfig) (*TCPHost, error) {
	h, err := listenTCPHost(cfg)
	if err != nil {
		return nil, err
	}
	h.run()
	return h, nil
}

// listenTCPHost opens the transport and queues Init as the first mailbox
// item, but starts no handler callback: until run, whatever arrives waits in
// the mailbox behind Init. Loopback binds every host this way before any of
// them runs, so each Init already has the whole address book.
func listenTCPHost(cfg TCPHostConfig) (*TCPHost, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("live: nil handler")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("live: config requires a wire registry")
	}
	h := &TCPHost{
		cfg:   cfg,
		inbox: newQueue(),
		rng:   rand.New(rand.NewSource(node.RandSeed(cfg.Seed, cfg.ID))),
	}
	if reg := cfg.Metrics; reg != nil {
		h.metReceived = reg.Counter("specsync_live_delivered_total", "Messages delivered to the node mailbox.")
		h.metMailbox = reg.Gauge("specsync_live_mailbox_depth", "Messages queued in the node mailbox.")
		h.metSendFail = reg.Counter("specsync_live_send_failures_total", "Sends the transport failed to deliver.")
	}
	tr, err := transport.ListenTCP(transport.TCPConfig{
		ID:         cfg.ID,
		ListenAddr: cfg.ListenAddr,
		Peers:      cfg.Peers,
		Registry:   cfg.Registry,
		Transfer:   cfg.Transfer,
		OnMessage:  func(from node.ID, m wire.Message) { h.enqueue(from, m, true) },
	})
	if err != nil {
		return nil, err
	}
	h.tr = tr
	h.inbox.push(item{fn: func() { cfg.Handler.Init(h) }})
	return h, nil
}

// run starts the mailbox goroutine.
func (h *TCPHost) run() {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.inbox.run(h.receive)
	}()
}

// Addr returns the transport's bound address.
func (h *TCPHost) Addr() string { return h.tr.Addr() }

// AddPeer registers a peer address after startup.
func (h *TCPHost) AddPeer(id node.ID, addr string) { h.tr.AddPeer(id, addr) }

// enqueue is the single instrumented path onto the mailbox: transport
// deliveries, loopback sends, and injected messages all pass through here so
// the mailbox-depth gauge and delivered counter see every message. decoded is
// true for the first two, whose message this host's registry produced. A
// closed mailbox refuses the message, which then never reaches receive to
// take its count off the gauge.
func (h *TCPHost) enqueue(from node.ID, m wire.Message, decoded bool) {
	h.metMailbox.Add(1)
	if !h.inbox.push(item{from: from, msg: m, decoded: decoded}) {
		h.metMailbox.Add(-1)
	}
}

// receive is enqueue's other half, run by the mailbox goroutine. A decoded
// message goes back to its pool once the handler returns (node.Handler).
func (h *TCPHost) receive(from node.ID, m wire.Message, decoded bool) {
	h.metMailbox.Add(-1)
	h.metReceived.Inc()
	h.cfg.Handler.Receive(from, m)
	if decoded {
		h.cfg.Registry.Recycle(m)
	}
}

// Inject enqueues a message onto this node's mailbox as if sent by from. The
// message stays the caller's: it may alias the caller's buffers, so it is not
// recycled.
func (h *TCPHost) Inject(from node.ID, m wire.Message) {
	h.enqueue(from, m, false)
}

// Do runs f on the mailbox goroutine, serialized with message handling, and
// waits for it to finish. Checkpointing uses this to snapshot handler state
// without racing the message loop. After Close it returns without running f.
func (h *TCPHost) Do(f func()) {
	done := make(chan struct{})
	if h.inbox.push(item{fn: func() { f(); close(done) }}) {
		<-done
	}
}

// Close stops the mailbox and the transport. Nothing is delivered after it
// returns, and a timer still pending never runs.
func (h *TCPHost) Close() {
	h.inbox.close()
	h.wg.Wait()
	h.tr.Close()
}

// Self implements node.Context.
func (h *TCPHost) Self() node.ID { return h.cfg.ID }

// Now implements node.Context.
func (h *TCPHost) Now() time.Time { return time.Now() }

// Rand implements node.Context.
func (h *TCPHost) Rand() *rand.Rand { return h.rng }

// Send implements node.Context.
func (h *TCPHost) Send(to node.ID, m wire.Message) {
	if to == h.cfg.ID {
		// Loopback without touching the network.
		data := wire.Marshal(m)
		decoded, err := h.cfg.Registry.Unmarshal(data)
		if err != nil {
			h.Logf("loopback decode: %v", err)
			return
		}
		h.enqueue(h.cfg.ID, decoded, true)
		return
	}
	if err := h.tr.Send(to, m); err != nil {
		h.metSendFail.Inc()
		h.Logf("send to %s: %v", to, err)
	}
}

// After implements node.Context. The host keeps its pending timers in one
// deadline-ordered heap behind one wall-clock timer (queue.after); callbacks
// run on the mailbox goroutine.
func (h *TCPHost) After(d time.Duration, f func()) node.CancelFunc {
	return h.inbox.after(d, f)
}

// Logf implements node.Context.
func (h *TCPHost) Logf(format string, args ...any) {
	if h.cfg.Debug {
		fmt.Fprintf(os.Stderr, "[tcp] %-10s "+format+"\n", append([]any{h.cfg.ID}, args...)...)
	}
}
