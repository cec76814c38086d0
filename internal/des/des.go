// Package des implements a deterministic discrete-event simulator that runs
// node.Handler state machines in virtual time. It substitutes for the
// paper's EC2 testbed: per-worker compute durations, network latency and
// bandwidth are modeled, while every message still passes through the real
// wire codec so byte accounting is exact. Given the same seed and
// configuration, a simulation is bit-for-bit reproducible.
package des

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
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
	// Metrics, if non-nil, receives simulator-level gauges and counters
	// (event-queue depth, steps executed, deliveries, virtual clock).
	// Recording only reads simulator state, so it cannot perturb the run.
	Metrics *obs.Registry
	// Debug, if non-nil, receives node log lines.
	Debug io.Writer
}

// vtime is virtual time in nanoseconds since the simulation epoch. The clock,
// event times, link busy-until and hiccup windows are all vtimes; time.Time
// only appears where the package hands the clock out.
type vtime = int64

// after returns t+d, saturating: a deadline of "now + the largest Duration"
// must mean never, not a time before now.
func after(t vtime, d time.Duration) vtime {
	if u := t + int64(d); d <= 0 || u >= t {
		return u
	}
	return math.MaxInt64
}

// eventKey is what the queue orders. seq is unique, so (at, seq) is a total
// order: the sequence of pops is a function of the pushes alone, whatever the
// queue's shape. That is the simulator's determinism contract.
type eventKey struct {
	at   vtime
	seq  uint64
	slot int32 // the event's body in Sim.slab
}

func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventQueue is a binary min-heap of keys.
type eventQueue []eventKey

func (q *eventQueue) push(k eventKey) {
	h := append(*q, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	*q = h
}

func (q *eventQueue) pop() eventKey {
	h := *q
	n := len(h) - 1
	top, k := h[0], h[n]
	h = h[:n]
	*q = h
	// Sift the hole at the root down to where the last key fits.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = k
	}
	return top
}

// event is the body of a pending event, held in Sim.slab while its key is
// queued. It is either a delivery (w != nil) or a timer (fn, nil once
// cancelled).
type event struct {
	seq uint64 // names this occupant of the slot to its cancel handle
	fn  func()
	// ctx is a delivery's destination, or the node whose timer this is (nil
	// for Sim.Schedule); gen is its incarnation when the event was made, and
	// the event is void if the node has crashed or restarted since.
	ctx  *simContext
	gen  uint64
	from node.ID      // delivery: the sender
	w    *wire.Writer // delivery: the encoded message, returned to the pool when run
	kind wire.Kind
}

// Sim is the simulator. It is not safe for concurrent use: build it, add
// nodes, then drive it from a single goroutine.
type Sim struct {
	cfg   Config
	start time.Time
	now   vtime
	nowT  time.Time // start.Add(now), recomputed only when the clock advances
	// Pending events: keys in the queue, bodies in the slab, vacated slab
	// slots on the free stack.
	queue    eventQueue
	slab     []event
	free     []int32
	seq      uint64
	nodes    map[node.ID]*simContext
	netRand  *rand.Rand
	started  bool
	stopped  bool
	steps    uint64      // count of executed events
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
	hiccupFront vtime // schedule generated up to here

	// Optional simulator telemetry (Config.Metrics), brought up to date by
	// publish; pubSteps and pubDelivers are the counts it last showed.
	metSteps     *obs.Counter
	metDelivered *obs.Counter
	metQueue     *obs.Gauge
	metVirtual   *obs.Gauge
	pubSteps     uint64
	pubDelivers  uint64
}

// publishEvery bounds how many steps a run takes between two updates of the
// simulator telemetry.
const publishEvery = 1024

type window struct {
	start, end vtime
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
		cfg:        cfg,
		start:      start,
		nowT:       start,
		nodes:      make(map[node.ID]*simContext),
		netRand:    rand.New(rand.NewSource(cfg.Seed ^ 0x5ec5)),
		hiccupRand: rand.New(rand.NewSource(cfg.Seed ^ 0x41cc)),
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
func (s *Sim) deferPastHiccup(arrive vtime) vtime {
	h := s.cfg.Net.Hiccups
	if !h.Enabled() {
		return arrive
	}
	// Extend the schedule deterministically until it covers `arrive`.
	for s.hiccupFront <= arrive {
		start := s.hiccupFront + int64(s.hiccupRand.ExpFloat64()*float64(h.MeanEvery))
		end := start + int64(h.MinDur)
		if span := h.MaxDur - h.MinDur; span > 0 {
			end += s.hiccupRand.Int63n(int64(span))
		}
		s.hiccups = append(s.hiccups, window{start: start, end: end})
		s.hiccupFront = end
	}
	// Windows are ordered and non-overlapping; binary search would work but
	// the relevant window is almost always near the end.
	for i := len(s.hiccups) - 1; i >= 0; i-- {
		w := s.hiccups[i]
		if arrive < w.start {
			continue
		}
		if arrive < w.end {
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
	_, err := s.register(id, h)
	return err
}

// register adds a node under the next dense index (nodes are never removed,
// so the count so far is unique), which names it in its senders' link tables.
func (s *Sim) register(id node.ID, h node.Handler) (*simContext, error) {
	if _, dup := s.nodes[id]; dup {
		return nil, fmt.Errorf("des: duplicate node %s", id)
	}
	if h == nil {
		return nil, fmt.Errorf("des: nil handler for %s", id)
	}
	nc := &simContext{
		sim:     s,
		id:      id,
		idx:     uint32(len(s.nodes)),
		handler: h,
		rng:     rand.New(rand.NewSource(node.RandSeed(s.cfg.Seed, id))),
	}
	s.nodes[id] = nc
	return nc, nil
}

// Join registers a handler mid-run (a clone or a rebalance replacement) and
// Inits it immediately in the caller's event context. Use AddNode before
// Init; Join after.
func (s *Sim) Join(id node.ID, h node.Handler) error {
	if !s.started {
		return fmt.Errorf("des: Join(%s) before Init; use AddNode", id)
	}
	nc, err := s.register(id, h)
	if err != nil {
		return err
	}
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
func (s *Sim) Now() time.Time { return s.nowT }

// Elapsed returns virtual time since the simulation epoch.
func (s *Sim) Elapsed() time.Duration { return time.Duration(s.now) }

// advance sets the clock and the time.Time that Now hands out.
func (s *Sim) advance(to vtime) {
	s.now = to
	s.nowT = s.start.Add(time.Duration(to))
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
	return s.timer(d, event{fn: f})
}

// timer enqueues a timer after d and returns its cancel handle, which names
// the slot and the occupant it was issued for: once the timer has run (or
// been cancelled) the handle matches nothing, whoever holds the slot then.
func (s *Sim) timer(d time.Duration, ev event) node.CancelFunc {
	slot := s.enqueue(after(s.now, d), ev)
	seq := s.slab[slot].seq
	return func() {
		if b := &s.slab[slot]; b.seq == seq {
			b.fn = nil
		}
	}
}

// enqueue queues ev at the given time, clamped to now, and returns its slot.
func (s *Sim) enqueue(at vtime, ev event) int32 {
	ev.seq = s.seq
	s.seq++
	slot := int32(len(s.slab))
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.slab[slot] = ev
	} else {
		s.slab = append(s.slab, ev)
	}
	s.queue.push(eventKey{at: max(at, s.now), seq: ev.seq, slot: slot})
	return slot
}

// Step executes the next pending event and brings the simulator telemetry up
// to date. It reports false when the queue is empty or the simulation is
// stopped. A cancelled event is still an event: it advances the clock and
// counts as a step.
func (s *Sim) Step() bool {
	ok := s.step()
	s.publish()
	return ok
}

// step is Step without the telemetry, which it brings up to date only every
// publishEvery steps; RunFor and RunUntilIdle publish before they return.
func (s *Sim) step() bool {
	if s.stopped || len(s.queue) == 0 {
		return false
	}
	k := s.queue.pop()
	// The body leaves the slab before it runs: what it runs may schedule, and
	// scheduling may move the slab or hand this slot to a new event.
	ev := s.slab[k.slot]
	s.slab[k.slot] = event{}
	s.free = append(s.free, k.slot)
	if k.at > s.now {
		s.advance(k.at)
	}
	switch {
	case ev.w != nil:
		s.deliver(&ev)
	case ev.fn != nil && (ev.ctx == nil || ev.ctx.alive(ev.gen)):
		ev.fn()
	}
	if s.steps++; s.steps%publishEvery == 0 {
		s.publish()
	}
	return true
}

// publish brings the simulator telemetry up to date. It runs only right after
// a step or when no step was taken since it last ran, so the gauges read the
// queue depth and clock as the latest step left them, as they would had every
// step set them.
func (s *Sim) publish() {
	if s.cfg.Metrics == nil || s.steps == s.pubSteps {
		return
	}
	s.metSteps.Add(int64(s.steps - s.pubSteps))
	s.metDelivered.Add(int64(s.delivers - s.pubDelivers))
	s.pubSteps, s.pubDelivers = s.steps, s.delivers
	s.metQueue.Set(float64(len(s.queue)))
	s.metVirtual.Set(s.Elapsed().Seconds())
}

// RunFor advances virtual time by d, executing every event due in the
// window. If the queue drains early, time still advances to the deadline.
func (s *Sim) RunFor(d time.Duration) {
	deadline := after(s.now, d)
	for !s.stopped && len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.step()
	}
	s.publish()
	if !s.stopped && s.now < deadline {
		s.advance(deadline)
	}
}

// RunUntilIdle executes events until none remain or maxVirtual elapses,
// whichever comes first. It returns the reason it stopped.
func (s *Sim) RunUntilIdle(maxVirtual time.Duration) string {
	deadline := after(s.now, maxVirtual)
	why := "stopped"
	for !s.stopped {
		if len(s.queue) == 0 {
			why = "idle"
			break
		}
		if s.queue[0].at > deadline {
			why = "deadline"
			break
		}
		s.step()
	}
	s.publish()
	if why == "deadline" {
		s.advance(deadline)
	}
	return why
}

// send routes a marshaled message through the fault hook and network model.
func (s *Sim) send(from *simContext, to node.ID, m wire.Message) {
	dst, ok := s.nodes[to]
	if !ok {
		s.logf(from.id, "send to unknown node %s dropped (kind %s)", to, s.cfg.Registry.Name(m.Kind()))
		return
	}
	var act FaultAction
	if s.fault != nil {
		act = s.fault(from.id, to, m.Kind(), s.nowT)
	}
	if act.Drop {
		s.faultDrops++
		s.logf(from.id, "fault: dropped %s to %s", s.cfg.Registry.Name(m.Kind()), to)
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
		s.transmit(from, dst, m.Kind(), w, act.Delay)
	}
}

// transmit sends one copy of an encoded message through the network model.
func (s *Sim) transmit(from, dst *simContext, kind wire.Kind, w *wire.Writer, extraDelay time.Duration) {
	if s.cfg.Transfer != nil {
		s.cfg.Transfer.RecordTransfer(from.id, dst.id, kind, w.Len(), s.nowT)
	}

	mult := 1.0
	if s.linkPenalty != nil {
		if m := s.linkPenalty(from.id, dst.id, s.Elapsed()); m > 1 {
			mult = m
		}
	}
	arrive := s.now
	if bps := s.cfg.Net.BytesPerSec; bps > 0 {
		busy := from.busyUntil(dst.idx)
		arrive = max(arrive, *busy)
		arrive += int64(float64(w.Len()) / bps * float64(time.Second) * mult)
		*busy = arrive
	}
	arrive += int64(float64(s.cfg.Net.Latency) * mult)
	if j := s.cfg.Net.Jitter; j > 0 {
		arrive += s.netRand.Int63n(int64(j))
	}
	arrive += int64(extraDelay)
	s.enqueue(s.deferPastHiccup(arrive), event{ctx: dst, gen: dst.gen, from: from.id, w: w, kind: kind})
}

// deliver runs a delivery event. It is the one place a message reaches a
// handler and the one place deliveries are counted.
func (s *Sim) deliver(ev *event) {
	dst := ev.ctx
	if !dst.alive(ev.gen) {
		// The destination crashed (or restarted as a new incarnation)
		// while the message was in flight: it is lost, exactly as a
		// closed TCP connection would lose it.
		s.deadDrops++
		wire.PutWriter(ev.w)
		return
	}
	s.rd.Reset(ev.w.Bytes())
	decoded, err := s.cfg.Registry.UnmarshalFrom(&s.rd)
	if err != nil {
		// A decode failure under the simulator is a codec bug; surface
		// it loudly rather than silently dropping.
		panic(fmt.Sprintf("des: decode %s from %s to %s: %v", s.cfg.Registry.Name(ev.kind), ev.from, dst.id, err))
	}
	s.delivers++
	dst.handler.Receive(ev.from, decoded)
	s.cfg.Registry.Recycle(decoded)
	wire.PutWriter(ev.w)
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
// network model, as live.TCPHost.Inject bypasses the socket. Fault injectors
// use it to re-issue Start to restarted workers. From there it is a delivery
// like any other: decoded when it arrives, counted, lost if the node is down
// by then.
func (s *Sim) Inject(from, to node.ID, m wire.Message) error {
	dst, ok := s.nodes[to]
	if !ok {
		return fmt.Errorf("des: inject: unknown node %s", to)
	}
	w := wire.GetWriter()
	wire.AppendMessage(w, m)
	s.enqueue(s.now, event{ctx: dst, gen: dst.gen, from: from, w: w, kind: m.Kind()})
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
	idx     uint32 // dense index, what a sender's link table is sorted by
	handler node.Handler
	rng     *rand.Rand
	// down marks the node crashed; gen counts incarnations. Timers and
	// in-flight deliveries capture gen and are discarded on mismatch, so a
	// restarted node never observes callbacks from a previous life.
	down bool
	gen  uint64
	// links holds the busy-until of each link this node has sent on, sorted
	// by destination index. A worker sends to a few servers and the
	// scheduler, a server to every worker, so a table per sender stays as
	// small as the traffic it sees. It outlives crashes: a restarted node's
	// links are still busy with what its previous incarnation sent.
	links []link
}

// link is one outgoing link's bandwidth-model state.
type link struct {
	dst   uint32 // the receiver's dense index
	until vtime  // when the link finishes serializing what was sent on it
}

// busyUntil returns the busy-until of the link from c to the node with dense
// index dst, adding an idle link on first use. The pointer is valid until the
// next call.
func (c *simContext) busyUntil(dst uint32) *vtime {
	i := sort.Search(len(c.links), func(k int) bool { return c.links[k].dst >= dst })
	if i == len(c.links) || c.links[i].dst != dst {
		c.links = slices.Insert(c.links, i, link{dst: dst})
	}
	return &c.links[i].until
}

var _ node.Context = (*simContext)(nil)

func (c *simContext) Self() node.ID    { return c.id }
func (c *simContext) Now() time.Time   { return c.sim.nowT }
func (c *simContext) Rand() *rand.Rand { return c.rng }

func (c *simContext) Send(to node.ID, m wire.Message) {
	c.sim.send(c, to, m)
}

func (c *simContext) After(d time.Duration, f func()) node.CancelFunc {
	return c.sim.timer(d, event{fn: f, ctx: c, gen: c.gen})
}

// alive reports whether the node is up and still the incarnation gen.
func (c *simContext) alive(gen uint64) bool { return !c.down && c.gen == gen }

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
