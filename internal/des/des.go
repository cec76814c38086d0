// Package des implements a deterministic discrete-event simulator that runs
// node.Handler state machines in virtual time. It substitutes for the
// paper's EC2 testbed: per-worker compute durations, network latency and
// bandwidth are modeled, while every message still passes through the real
// wire codec so byte accounting is exact. Given the same seed and
// configuration, a simulation is bit-for-bit reproducible.
package des

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// NetModel describes the simulated network between any two nodes.
type NetModel struct {
	// Latency is the one-way propagation delay added to every message.
	Latency time.Duration
	// BytesPerSec is the per-link throughput; 0 means infinite bandwidth.
	// Each ordered (src, dst) pair is an independent link that serializes
	// its messages, so a burst of large pulls queues realistically.
	BytesPerSec float64
	// Jitter adds a uniform random delay in [0, Jitter) per message.
	Jitter time.Duration
	// Hiccups models cluster-wide transient stalls (multi-tenant network
	// contention, EBS pauses, rack-level blips — routine on EC2). During a
	// hiccup, deliveries are deferred to its end, so queued messages land
	// as a burst. Bursty push arrival is the environment the paper's
	// speculation exploits: a worker that pulled just before a burst misses
	// a large block of updates unless it re-synchronizes.
	Hiccups Hiccups
}

// Hiccups configures the cluster-wide stall process: stalls start with
// exponential spacing (mean MeanEvery) and last uniform [MinDur, MaxDur).
type Hiccups struct {
	MeanEvery time.Duration // zero disables hiccups
	MinDur    time.Duration
	MaxDur    time.Duration
}

// Enabled reports whether the hiccup process is active.
func (h Hiccups) Enabled() bool { return h.MeanEvery > 0 }

func (h Hiccups) validate() error {
	if !h.Enabled() {
		return nil
	}
	if h.MinDur <= 0 || h.MaxDur < h.MinDur {
		return fmt.Errorf("des: hiccup durations must satisfy 0 < MinDur <= MaxDur, got [%v, %v]", h.MinDur, h.MaxDur)
	}
	return nil
}

// TransferRecorder observes every simulated message send for the
// communication-overhead experiments (paper Figs. 12-13).
type TransferRecorder interface {
	RecordTransfer(from, to node.ID, kind wire.Kind, bytes int, at time.Time)
}

// FaultAction tells the simulator what to do with one message. The zero
// value delivers normally.
type FaultAction struct {
	// Drop discards the message (it still consumed no link time).
	Drop bool
	// Duplicate transmits a second copy (both pass through the bandwidth
	// model, so they serialize on the link like a real retransmission).
	Duplicate bool
	// Delay adds this much extra latency, reordering the message past
	// later traffic on the same link.
	Delay time.Duration
}

// FaultHook decides the fault action for each message at send time. It runs
// on the simulator goroutine; any randomness inside must come from a seeded
// stream so runs stay reproducible. internal/faults builds hooks from
// declarative fault plans.
type FaultHook func(from, to node.ID, kind wire.Kind, at time.Time) FaultAction

// Config configures a simulation.
type Config struct {
	// Seed drives all simulator randomness (jitter) and derives per-node
	// random streams.
	Seed int64
	// Net is the network model applied to every message.
	Net NetModel
	// Registry decodes messages at delivery. Required.
	Registry *wire.Registry
	// Start is the virtual epoch; zero means time.Unix(0, 0).
	Start time.Time
	// Transfer, if non-nil, receives a record per message sent.
	Transfer TransferRecorder
	// Fault, if non-nil, is consulted for every message (see also
	// Sim.SetFault, which fault injectors use after construction).
	Fault FaultHook
	// Metrics, if non-nil, receives simulator-level gauges and counters
	// (event-queue depth, steps executed, deliveries, virtual clock).
	// Recording only reads simulator state, so it cannot perturb the run.
	Metrics *obs.Registry
	// Debug, if non-nil, receives node log lines.
	Debug io.Writer
}

type event struct {
	at  time.Time
	seq uint64 // tie-break for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type linkKey struct {
	from, to node.ID
}

// Sim is the simulator. It is not safe for concurrent use: build it, add
// nodes, then drive it from a single goroutine.
type Sim struct {
	cfg      Config
	now      time.Time
	start    time.Time
	queue    eventHeap
	seq      uint64
	nodes    map[node.ID]*simContext
	links    map[linkKey]time.Time // per-link busy-until for bandwidth model
	netRand  *rand.Rand
	started  bool
	stopped  bool
	delivers uint64      // count of delivered messages, for stats/tests
	rd       wire.Reader // decodes every delivery; events never nest
	fault    FaultHook
	// linkPenalty, if non-nil, scales per-link transfer time (straggler
	// congestion profiles). Unlike the fault hook it is a pure function —
	// no drops, no randomness — so it composes with fault plans.
	linkPenalty LinkPenaltyHook
	// Fault-induced drop counts: injected by the hook vs. lost because the
	// destination was down (or a different incarnation) at arrival.
	faultDrops uint64
	deadDrops  uint64

	// Hiccup windows generated so far, in time order, and the RNG stream
	// that extends them (independent of other randomness for determinism).
	hiccups     []window
	hiccupRand  *rand.Rand
	hiccupFront time.Time // schedule generated up to here

	// Optional simulator telemetry (Config.Metrics).
	metSteps     *obs.Counter
	metDelivered *obs.Counter
	metQueue     *obs.Gauge
	metVirtual   *obs.Gauge
}

type window struct {
	start, end time.Time
}

// New builds an empty simulation.
func New(cfg Config) (*Sim, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("des: config requires a wire registry")
	}
	if cfg.Net.BytesPerSec < 0 || cfg.Net.Latency < 0 || cfg.Net.Jitter < 0 {
		return nil, fmt.Errorf("des: negative network parameters")
	}
	if err := cfg.Net.Hiccups.validate(); err != nil {
		return nil, err
	}
	start := cfg.Start
	if start.IsZero() {
		start = time.Unix(0, 0).UTC()
	}
	s := &Sim{
		cfg:         cfg,
		now:         start,
		start:       start,
		nodes:       make(map[node.ID]*simContext),
		links:       make(map[linkKey]time.Time),
		netRand:     rand.New(rand.NewSource(cfg.Seed ^ 0x5ec5)),
		hiccupRand:  rand.New(rand.NewSource(cfg.Seed ^ 0x41cc)),
		hiccupFront: start,
		fault:       cfg.Fault,
	}
	if reg := cfg.Metrics; reg != nil {
		s.metSteps = reg.Counter("specsync_sim_steps_total", "Simulator events executed.")
		s.metDelivered = reg.Counter("specsync_sim_delivered_total", "Messages delivered by the simulator.")
		s.metQueue = reg.Gauge("specsync_sim_queue_depth", "Pending events in the simulator queue.")
		s.metVirtual = reg.Gauge("specsync_sim_virtual_seconds", "Virtual time elapsed since the simulation epoch.")
	}
	return s, nil
}

// SetFault installs (or replaces) the message fault hook. Fault injectors
// call it after the simulation is built but before (or during) the run.
func (s *Sim) SetFault(f FaultHook) { s.fault = f }

// LinkPenaltyHook scales the transfer time of one message: it returns a
// multiplier >= 1 applied to both the link serialization time and the
// propagation latency. elapsed is virtual time since the simulation epoch.
// The hook must be a pure function of its arguments (no randomness, no
// state) so runs stay bit-for-bit reproducible; internal/stragglers builds
// hooks from declarative congestion profiles.
type LinkPenaltyHook func(from, to node.ID, elapsed time.Duration) float64

// SetLinkPenalty installs (or replaces) the link penalty hook. A nil hook
// (the default) leaves the network model byte-identical to a build without
// the hook point.
func (s *Sim) SetLinkPenalty(f LinkPenaltyHook) { s.linkPenalty = f }

// deferPastHiccup returns the delivery time adjusted for cluster stalls: a
// message that would arrive during a hiccup window is held until the window
// ends (it sat in a queue), so co-stalled messages release as a burst.
func (s *Sim) deferPastHiccup(arrive time.Time) time.Time {
	h := s.cfg.Net.Hiccups
	if !h.Enabled() {
		return arrive
	}
	// Extend the schedule deterministically until it covers `arrive`.
	for !s.hiccupFront.After(arrive) {
		gap := time.Duration(s.hiccupRand.ExpFloat64() * float64(h.MeanEvery))
		start := s.hiccupFront.Add(gap)
		dur := h.MinDur
		if span := h.MaxDur - h.MinDur; span > 0 {
			dur += time.Duration(s.hiccupRand.Int63n(int64(span)))
		}
		s.hiccups = append(s.hiccups, window{start: start, end: start.Add(dur)})
		s.hiccupFront = start.Add(dur)
	}
	// Windows are ordered and non-overlapping; binary search would work but
	// the relevant window is almost always near the end.
	for i := len(s.hiccups) - 1; i >= 0; i-- {
		w := s.hiccups[i]
		if arrive.Before(w.start) {
			continue
		}
		if arrive.Before(w.end) {
			return w.end
		}
		break
	}
	return arrive
}

// AddNode registers a handler under id. All nodes must be added before Init.
func (s *Sim) AddNode(id node.ID, h node.Handler) error {
	if s.started {
		return fmt.Errorf("des: AddNode(%s) after Init", id)
	}
	if _, dup := s.nodes[id]; dup {
		return fmt.Errorf("des: duplicate node %s", id)
	}
	if h == nil {
		return fmt.Errorf("des: nil handler for %s", id)
	}
	s.nodes[id] = &simContext{
		sim:     s,
		id:      id,
		handler: h,
		rng:     rand.New(rand.NewSource(node.RandSeed(s.cfg.Seed, id))),
	}
	return nil
}

// Join registers a handler mid-run (elastic scale-up) and Inits it
// immediately in the caller's event context. Use AddNode before Init;
// Join after.
func (s *Sim) Join(id node.ID, h node.Handler) error {
	if !s.started {
		return fmt.Errorf("des: Join(%s) before Init; use AddNode", id)
	}
	if _, dup := s.nodes[id]; dup {
		return fmt.Errorf("des: duplicate node %s", id)
	}
	if h == nil {
		return fmt.Errorf("des: nil handler for %s", id)
	}
	nc := &simContext{
		sim:     s,
		id:      id,
		handler: h,
		rng:     rand.New(rand.NewSource(node.RandSeed(s.cfg.Seed, id))),
	}
	s.nodes[id] = nc
	nc.handler.Init(nc)
	return nil
}

// Init calls Handler.Init on every node in sorted ID order (deterministic).
func (s *Sim) Init() {
	if s.started {
		return
	}
	s.started = true
	ids := make([]node.ID, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nc := s.nodes[id]
		nc.handler.Init(nc)
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Elapsed returns virtual time since the simulation epoch.
func (s *Sim) Elapsed() time.Duration {
	start := s.cfg.Start
	if start.IsZero() {
		start = time.Unix(0, 0).UTC()
	}
	return s.now.Sub(start)
}

// Delivered returns the number of messages delivered so far.
func (s *Sim) Delivered() uint64 { return s.delivers }

// Stop makes the current Run call return after the in-flight event.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// Schedule enqueues a simulator-level event (probes, experiment control)
// after d. It returns a cancel function like node timers.
func (s *Sim) Schedule(d time.Duration, f func()) node.CancelFunc {
	return s.scheduleAt(s.now.Add(d), f)
}

func (s *Sim) scheduleAt(at time.Time, f func()) node.CancelFunc {
	if at.Before(s.now) {
		at = s.now
	}
	canceled := false
	ev := &event{at: at, seq: s.seq, fn: func() {
		if !canceled {
			f()
		}
	}}
	s.seq++
	heap.Push(&s.queue, ev)
	return func() { canceled = true }
}

// Step executes the next pending event. It reports false when the queue is
// empty or the simulation is stopped.
func (s *Sim) Step() bool {
	if s.stopped || s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	if ev.at.After(s.now) {
		s.now = ev.at
	}
	ev.fn()
	s.metSteps.Inc()
	s.metQueue.Set(float64(s.queue.Len()))
	s.metVirtual.Set(s.Elapsed().Seconds())
	return true
}

// RunFor advances virtual time by d, executing every event due in the
// window. If the queue drains early, time still advances to the deadline.
func (s *Sim) RunFor(d time.Duration) {
	deadline := s.now.Add(d)
	for !s.stopped && s.queue.Len() > 0 && !s.queue[0].at.After(deadline) {
		s.Step()
	}
	if !s.stopped && s.now.Before(deadline) {
		s.now = deadline
	}
}

// RunUntilIdle executes events until none remain or maxVirtual elapses,
// whichever comes first. It returns the reason it stopped.
func (s *Sim) RunUntilIdle(maxVirtual time.Duration) string {
	deadline := s.now.Add(maxVirtual)
	for !s.stopped {
		if s.queue.Len() == 0 {
			return "idle"
		}
		if s.queue[0].at.After(deadline) {
			s.now = deadline
			return "deadline"
		}
		s.Step()
	}
	return "stopped"
}

// send routes a marshaled message through the fault hook and network model.
func (s *Sim) send(from, to node.ID, m wire.Message) {
	dst, ok := s.nodes[to]
	if !ok {
		s.logf(from, "send to unknown node %s dropped (kind %s)", to, s.cfg.Registry.Name(m.Kind()))
		return
	}
	var act FaultAction
	if s.fault != nil {
		act = s.fault(from, to, m.Kind(), s.now)
	}
	if act.Drop {
		s.faultDrops++
		s.logf(from, "fault: dropped %s to %s", s.cfg.Registry.Name(m.Kind()), to)
		return
	}
	copies := 1
	if act.Duplicate {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		// Each copy is encoded into its own pooled writer, which goes back
		// when that copy's delivery event has run.
		w := wire.GetWriter()
		wire.AppendMessage(w, m)
		s.transmit(from, to, dst, m.Kind(), w, act.Delay)
	}
}

// transmit sends one copy of an encoded message through the network model.
func (s *Sim) transmit(from, to node.ID, dst *simContext, kind wire.Kind, w *wire.Writer, extraDelay time.Duration) {
	data := w.Bytes()
	if s.cfg.Transfer != nil {
		s.cfg.Transfer.RecordTransfer(from, to, kind, len(data), s.now)
	}

	mult := 1.0
	if s.linkPenalty != nil {
		if m := s.linkPenalty(from, to, s.now.Sub(s.start)); m > 1 {
			mult = m
		}
	}
	arrive := s.now
	if bps := s.cfg.Net.BytesPerSec; bps > 0 {
		key := linkKey{from: from, to: to}
		start := s.now
		if busy, ok := s.links[key]; ok && busy.After(start) {
			start = busy
		}
		tx := time.Duration(float64(len(data)) / bps * float64(time.Second) * mult)
		s.links[key] = start.Add(tx)
		arrive = start.Add(tx)
	}
	arrive = arrive.Add(time.Duration(float64(s.cfg.Net.Latency) * mult))
	if j := s.cfg.Net.Jitter; j > 0 {
		arrive = arrive.Add(time.Duration(s.netRand.Int63n(int64(j))))
	}
	arrive = arrive.Add(extraDelay)
	arrive = s.deferPastHiccup(arrive)

	kindName := s.cfg.Registry.Name(kind)
	gen := dst.gen
	s.scheduleAt(arrive, func() {
		defer wire.PutWriter(w)
		if dst.down || dst.gen != gen {
			// The destination crashed (or restarted as a new incarnation)
			// while the message was in flight: it is lost, exactly as a
			// closed TCP connection would lose it.
			s.deadDrops++
			return
		}
		s.rd.Reset(data)
		decoded, err := s.cfg.Registry.UnmarshalFrom(&s.rd)
		if err != nil {
			// A decode failure under the simulator is a codec bug; surface
			// it loudly rather than silently dropping.
			panic(fmt.Sprintf("des: decode %s from %s to %s: %v", kindName, from, to, err))
		}
		s.delivers++
		s.metDelivered.Inc()
		dst.handler.Receive(from, decoded)
		s.cfg.Registry.Recycle(decoded)
	})
}

// Crash marks a node as failed. While down, every message addressed to it is
// lost, its pending timers never fire, and in-flight messages sent to the
// previous incarnation are dropped on arrival. A crashed node can be brought
// back with Restart.
func (s *Sim) Crash(id node.ID) error {
	nc, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("des: Crash(%s): unknown node", id)
	}
	if nc.down {
		return fmt.Errorf("des: Crash(%s): already down", id)
	}
	nc.down = true
	nc.gen++
	s.logf(id, "crashed")
	return nil
}

// Restart revives a crashed node as a fresh incarnation. A non-nil handler
// replaces the node's state machine (the usual case: crash loses state); nil
// keeps the existing handler object (for handlers whose state is restored
// out of band before the restart). Init runs immediately.
func (s *Sim) Restart(id node.ID, h node.Handler) error {
	nc, ok := s.nodes[id]
	if !ok {
		return fmt.Errorf("des: Restart(%s): unknown node", id)
	}
	if !nc.down {
		return fmt.Errorf("des: Restart(%s): not down", id)
	}
	if h != nil {
		nc.handler = h
	}
	nc.down = false
	nc.gen++
	s.logf(id, "restarted (incarnation %d)", nc.gen)
	nc.handler.Init(nc)
	return nil
}

// Down reports whether a node is currently crashed.
func (s *Sim) Down(id node.ID) bool {
	nc, ok := s.nodes[id]
	return ok && nc.down
}

// Inject delivers a message to a node as if sent by from, bypassing the
// network model (mirrors live.Network.Inject). Fault injectors use it to
// re-issue Start to restarted workers.
func (s *Sim) Inject(from, to node.ID, m wire.Message) error {
	dst, ok := s.nodes[to]
	if !ok {
		return fmt.Errorf("des: inject: unknown node %s", to)
	}
	data := wire.Marshal(m)
	decoded, err := s.cfg.Registry.Unmarshal(data)
	if err != nil {
		return fmt.Errorf("des: inject: %w", err)
	}
	gen := dst.gen
	s.scheduleAt(s.now, func() {
		if dst.down || dst.gen != gen {
			s.deadDrops++
			return
		}
		s.delivers++
		dst.handler.Receive(from, decoded)
	})
	return nil
}

// FaultDrops returns (hook-injected drops, deliveries lost to down nodes).
func (s *Sim) FaultDrops() (injected, dead uint64) { return s.faultDrops, s.deadDrops }

func (s *Sim) logf(id node.ID, format string, args ...any) {
	if s.cfg.Debug == nil {
		return
	}
	fmt.Fprintf(s.cfg.Debug, "[%12s] %-10s "+format+"\n",
		append([]any{s.Elapsed().Round(time.Microsecond), id}, args...)...)
}

// simContext implements node.Context for one simulated node.
type simContext struct {
	sim     *Sim
	id      node.ID
	handler node.Handler
	rng     *rand.Rand
	// down marks the node crashed; gen counts incarnations. Timers and
	// in-flight deliveries capture gen and are discarded on mismatch, so a
	// restarted node never observes callbacks from a previous life.
	down bool
	gen  uint64
}

var _ node.Context = (*simContext)(nil)

func (c *simContext) Self() node.ID    { return c.id }
func (c *simContext) Now() time.Time   { return c.sim.now }
func (c *simContext) Rand() *rand.Rand { return c.rng }

func (c *simContext) Send(to node.ID, m wire.Message) {
	c.sim.send(c.id, to, m)
}

func (c *simContext) After(d time.Duration, f func()) node.CancelFunc {
	if d < 0 {
		d = 0
	}
	gen := c.gen
	return c.sim.scheduleAt(c.sim.now.Add(d), func() {
		if c.down || c.gen != gen {
			return // timer from a crashed (or previous) incarnation
		}
		f()
	})
}

func (c *simContext) Logf(format string, args ...any) {
	c.sim.logf(c.id, format, args...)
}

// NodeHandler returns the handler registered under id, or nil. Experiment
// probes use this to read state (e.g. server parameters) without generating
// traffic; the simulator is single-threaded so direct reads are safe.
func (s *Sim) NodeHandler(id node.ID) node.Handler {
	if nc, ok := s.nodes[id]; ok {
		return nc.handler
	}
	return nil
}
