package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// SchedulerConfig configures the centralized SpecSync scheduler.
type SchedulerConfig struct {
	// Workers is the number of workers m.
	Workers int
	// Scheme selects the synchronization scheme.
	Scheme scheme.Config
	// Tuner bounds the adaptive search (Workers is filled automatically).
	Tuner TunerConfig
	// InitialSpan seeds the per-worker iteration-span estimate before any
	// measurement exists (use the workload's nominal iteration time).
	InitialSpan time.Duration
	// SpanAlpha is the EWMA weight of a new span sample; zero means 0.3.
	SpanAlpha float64
	// HistoryLimit caps retained push records; zero means 32 * Workers.
	HistoryLimit int
	// Tracer, if non-nil, receives re-sync and epoch events.
	Tracer trace.Tracer
	// OnTune, if non-nil, is invoked after each adaptive tuning pass.
	OnTune func(epoch int, t Tuning)
	// CheckAtExpiryOnly restores the paper's literal Algorithm 2, which
	// evaluates the push count once, when the speculation window expires.
	// The default (eager) implementation issues the re-sync the moment the
	// count crosses the threshold, so a burst of pushes landing mid-window
	// aborts the worker immediately instead of up to ABORT_TIME later —
	// same trigger condition, strictly earlier refresh. The ablation bench
	// compares both.
	CheckAtExpiryOnly bool
	// RateMargin scales the adaptive ABORT_RATE (>= 1; zero means the
	// default 2). The paper's Gamma = l~/m is the freshness break-even
	// point; it prices the freshness lost by delaying the worker's push but
	// not the computation thrown away by the restart itself. In this
	// substrate that break-even triggers aborts on roughly half of all
	// iterations, and the wasted compute cancels the freshness gains, so
	// the default demands the expected gain clear the loss estimate by 2x.
	// Set to 1 for the paper's literal threshold (ablation).
	RateMargin float64
	// LivenessTimeout, when positive, enables failure detection: a worker
	// whose last sign of life (notify or heartbeat) is older than this is
	// evicted from membership — it stops counting toward epoch boundaries,
	// speculation thresholds and the gate's released clock, and the tuner
	// ignores its history. Any later message re-admits it. Zero disables
	// liveness tracking (every worker is a permanent member).
	LivenessTimeout time.Duration
	// Faults, if non-nil, receives eviction/re-admission counts.
	Faults *metrics.Faults
	// Obs, if non-nil, receives re-sync/epoch/membership telemetry and is
	// handed the source the /clusterz view is built from at request time.
	Obs *obs.SchedulerObs
	// Generation is this scheduler's incarnation number. Zero is the
	// original process; a positive value marks a post-crash restart, which
	// broadcasts SchedulerHello (instead of Start) on Init so workers
	// re-report their state and leave degraded mode.
	Generation int64
	// BeaconEvery, when positive, broadcasts a periodic SchedulerBeacon so
	// workers' scheduler-failure detectors have a liveness signal that does
	// not depend on re-sync or release traffic.
	BeaconEvery time.Duration
	// ActiveWorkers is how many of the Workers capacity slots start in
	// membership (zero means all). Elastic runs size Workers to the scale
	// plan's maximum and start the rest unjoined: those slots are not
	// started, not counted by the tuner/gate/epoch logic, and enter via
	// JoinReq.
	ActiveWorkers int
	// Routing, when non-nil, enables elastic membership: the scheduler owns
	// this epoch-stamped shard→server table, admits JoinReqs, and drives
	// shard migrations on ScaleCmds (see elastic.go).
	Routing *RoutingTable
	// OnRouting, if non-nil, is invoked with a copy of the table after each
	// commit (the harness re-aims its probe assembly).
	OnRouting func(*RoutingTable)
	// ReportSpans says the workers send NotifyV2 work spans (the harness
	// passes cluster.Config.ReportSpans, the rule the workers also read); the
	// scheduler then feeds the straggler detector and the gate policies those
	// spans instead of notify intervals, which synchronize under a barrier
	// and cannot tell a straggler from the fleet it stalls.
	ReportSpans bool
	// Mitigate, when non-nil, arms the periodic straggler-mitigation pass
	// (see mitigate.go). Implies ReportSpans.
	Mitigate *MitigateConfig
}

// Scheduler is the central coordinator (paper Fig. 7): it observes notify
// messages from workers, runs the speculation check for each worker
// (Algorithm 2, scheduler side), retunes hyperparameters each epoch
// (Algorithm 1), and releases the clock gate (scheme.Gate) the baseline
// schemes wait on.
type Scheduler struct {
	// mu is held across every entry point — Init, Receive and the timer
	// callbacks, which the runtime already serializes — so that the one
	// outside reader, clusterView on a /clusterz request's goroutine, sees
	// consistent state. Uncontended unless somebody is reading. The config's
	// hooks (OnTune, OnRouting, the Mitigate callbacks) run under it and must
	// not ask Obs for the cluster view.
	mu sync.Mutex

	ctx node.Context
	cfg SchedulerConfig
	m   int

	// Speculation state.
	specEnabled bool
	abortTime   time.Duration
	rates       []float64
	windows     []specWindow

	// Push history and epoch tracking. histCount[i] is worker i's number of
	// records in history, kept as records enter and leave; epochPushes and
	// tuner are retune's scratch.
	history     Tail[PushRecord]
	histCount   []int
	epochPushes []PushRecord
	tuner       Tuner
	lastNotify  []time.Time
	spanEWMA    []time.Duration
	pushed      []bool
	pushedN     int
	epoch       atomic.Int64
	epochStart  time.Time

	// notifyCount[i] is worker i's clock: the number of completed
	// iterations it has reported via Notify (== last Notify.Iter + 1). The
	// gate releases on these clocks, and a restarted scheduler compares them
	// against StateReport.Iter to detect pushes it missed while down.
	notifyCount []int64

	// The gate (see gate.go): cur is the active gate, released the clock R
	// it has released (never regressing), clocks gateClock's buffer and
	// release the sender-held broadcast (Send encodes before it returns).
	cur      scheme.Gate
	released int64
	clocks   []int64
	release  msg.Release

	// Membership / liveness state (LivenessTimeout > 0).
	alive           []bool
	aliveN          int
	lastSeen        []time.Time
	membershipEpoch atomic.Int64

	// Elastic state (cfg.Routing != nil; see elastic.go). joined
	// distinguishes "never joined" from "evicted" so liveness re-admission
	// cannot resurrect a slot that has not sent JoinReq yet.
	joined      []bool
	routing     *RoutingTable
	nextRouting *RoutingTable
	liveServers []int
	migrating   bool
	migStart    time.Time
	migExpect   map[int]bool
	migInvolved []int
	migBytes    int64
	pendingOps  []*msg.ScaleCmd
	scale       scaleCounters

	// Gate policy state (see switch.go). Runs without a policy never
	// switch; a policy moves cur through switchTo. metaStreak is the meta
	// policy's hysteresis count. workSpan is the EWMA of NotifyV2-reported
	// work spans, allocated only on dynamic or span-tracking runs.
	schemeEpoch   int64
	switches      atomic.Int64
	lastSwitchAt  time.Time
	lastSwitchWhy string
	metaStreak    int
	workSpan      []time.Duration

	// Straggler-mitigation state (cfg.Mitigate != nil; see mitigate.go).
	mit *mitigateState

	resyncsSent  atomic.Int64
	tunes        int64
	stateReports int64
	restored     bool // booted from a checkpoint snapshot

	// viewAt stamps the /clusterz view: the time of the last notify, state
	// report or membership change handled. Zero until there is one.
	viewAt time.Time
}

// specWindow tracks one worker's open speculation window.
type specWindow struct {
	armed     bool
	deadline  time.Time
	iter      int64 // iteration to abort if the threshold is met
	threshold float64
	cnt       int
	cancel    node.CancelFunc
}

var _ node.Handler = (*Scheduler)(nil)

// NewScheduler validates the configuration and builds the scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("core: scheduler needs at least 1 worker")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialSpan <= 0 {
		return nil, fmt.Errorf("core: InitialSpan must be positive (nominal iteration time)")
	}
	if cfg.SpanAlpha == 0 {
		cfg.SpanAlpha = 0.3
	}
	if cfg.SpanAlpha < 0 || cfg.SpanAlpha > 1 {
		return nil, fmt.Errorf("core: SpanAlpha %v outside (0,1]", cfg.SpanAlpha)
	}
	if cfg.HistoryLimit == 0 {
		cfg.HistoryLimit = 32 * cfg.Workers
	}
	if cfg.RateMargin == 0 {
		cfg.RateMargin = 2
	}
	if cfg.RateMargin < 1 {
		return nil, fmt.Errorf("core: RateMargin %v must be >= 1", cfg.RateMargin)
	}
	if cfg.ActiveWorkers == 0 {
		cfg.ActiveWorkers = cfg.Workers
	}
	if cfg.ActiveWorkers < 1 || cfg.ActiveWorkers > cfg.Workers {
		return nil, fmt.Errorf("core: ActiveWorkers %d outside [1,%d]", cfg.ActiveWorkers, cfg.Workers)
	}
	if cfg.Routing != nil {
		if err := cfg.Routing.Validate(); err != nil {
			return nil, err
		}
		cfg.Routing = cfg.Routing.Clone()
	}
	cfg.Tuner.Workers = cfg.Workers

	s := &Scheduler{
		cfg:         cfg,
		m:           cfg.Workers,
		histCount:   make([]int, cfg.Workers),
		lastNotify:  make([]time.Time, cfg.Workers),
		spanEWMA:    make([]time.Duration, cfg.Workers),
		pushed:      make([]bool, cfg.Workers),
		notifyCount: make([]int64, cfg.Workers),
		clocks:      make([]int64, 0, cfg.Workers),
		rates:       make([]float64, cfg.Workers),
		windows:     make([]specWindow, cfg.Workers),
		alive:       make([]bool, cfg.Workers),
		joined:      make([]bool, cfg.Workers),
		aliveN:      cfg.ActiveWorkers,
	}
	for i := 0; i < cfg.ActiveWorkers; i++ {
		s.alive[i] = true
		s.joined[i] = true
	}
	s.cur = cfg.Scheme.Gate()
	if cfg.Mitigate != nil {
		if err := cfg.Mitigate.validate(cfg.Workers); err != nil {
			return nil, err
		}
		if cfg.Mitigate.Mode == MitigateRebalance && cfg.Routing == nil {
			return nil, fmt.Errorf("core: rebalance mitigation requires elastic membership (Routing)")
		}
		cfg.ReportSpans = true
		s.cfg = cfg
		s.mit = &mitigateState{
			cloneOf:  make([]int, cfg.Mitigate.Spares),
			cloneFor: make(map[int]int),
			selfIter: make([]int64, cfg.Workers),
			acted:    make(map[int]bool),
		}
		for i := range s.mit.cloneOf {
			s.mit.cloneOf[i] = -1
		}
	}
	if cfg.ReportSpans {
		s.workSpan = make([]time.Duration, cfg.Workers)
	}
	if cfg.Routing != nil {
		s.routing = cfg.Routing
		s.liveServers = s.routing.Servers()
	}
	for i := range s.spanEWMA {
		s.spanEWMA[i] = cfg.InitialSpan
	}
	// Cherrypick starts speculating immediately with the fixed values;
	// Adaptive waits for the first epoch of history.
	if cfg.Scheme.Spec == scheme.SpecFixed {
		s.specEnabled = true
		s.abortTime = cfg.Scheme.AbortTime
		for i := range s.rates {
			s.rates[i] = cfg.Scheme.AbortRate
		}
	}
	return s, nil
}

// Init implements node.Handler. The original incarnation launches every
// worker; a restarted one (Generation > 0) instead announces itself with
// SchedulerHello so workers answer with StateReports and the gate and epoch
// state rebuilds.
func (s *Scheduler) Init(ctx node.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctx = ctx
	now := ctx.Now()
	s.cfg.Obs.ClusterSource(s.clusterView)
	if s.epochStart.IsZero() || !s.restored {
		s.epochStart = now
	}
	s.cfg.Obs.Tune(s.specEnabled, s.abortTime, metrics.Mean(s.rates))
	s.cfg.Obs.AliveWorkers(s.aliveN)
	if s.cfg.LivenessTimeout > 0 {
		s.lastSeen = make([]time.Time, s.m)
		for i := range s.lastSeen {
			s.lastSeen[i] = now
		}
		s.armLivenessSweep()
	}
	if s.cfg.BeaconEvery > 0 {
		s.armBeacon()
	}
	if s.cfg.Mitigate != nil {
		s.mit.start = now
		s.armMitigate()
	}
	if s.cfg.Generation > 0 {
		s.cfg.Obs.Restarted(now, s.cfg.Generation)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Record(trace.Event{At: now, Worker: trace.SchedulerNode, Kind: trace.KindRecover, Value: s.cfg.Generation})
		}
		for i := 0; i < s.m; i++ {
			ctx.Send(node.WorkerID(i), &msg.SchedulerHello{Gen: s.cfg.Generation})
		}
		// Workers reset their scheme epoch on a newer-generation hello, so a
		// restart re-announce restores the checkpointed discipline even if
		// the fleet had applied switches the checkpoint never saw.
		if s.dynamic() && s.schemeEpoch > 0 {
			for i := 0; i < s.m; i++ {
				s.resendScheme(i, now)
			}
		}
		s.viewAt = now
		return
	}
	for i := 0; i < s.cfg.ActiveWorkers; i++ {
		ctx.Send(node.WorkerID(i), &msg.Start{})
	}
}

// armBeacon schedules the periodic scheduler liveness beacon.
func (s *Scheduler) armBeacon() {
	s.ctx.After(s.cfg.BeaconEvery, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := 0; i < s.m; i++ {
			s.ctx.Send(node.WorkerID(i), &msg.SchedulerBeacon{Gen: s.cfg.Generation})
		}
		s.armBeacon()
	})
}

// armLivenessSweep schedules the periodic failure-detection pass. Sweeping at
// half the timeout bounds detection latency to 1.5x LivenessTimeout.
func (s *Scheduler) armLivenessSweep() {
	s.ctx.After(s.cfg.LivenessTimeout/2, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.sweepLiveness(s.ctx.Now())
		s.armLivenessSweep()
	})
}

// touch records a sign of life from worker i, re-admitting it if it had been
// evicted. Any message counts as proof of life — a restarted worker rejoins
// membership on its first notify or heartbeat.
func (s *Scheduler) touch(i int, now time.Time) {
	if s.cfg.LivenessTimeout <= 0 {
		return
	}
	s.lastSeen[i] = now
	if s.alive[i] {
		return
	}
	if !s.joined[i] {
		// An unjoined elastic capacity slot: only JoinReq admits it.
		return
	}
	s.alive[i] = true
	s.aliveN++
	epoch := s.membershipEpoch.Add(1)
	s.cfg.Faults.RecordReadmission()
	s.cfg.Obs.Readmit(now, i, epoch)
	s.cfg.Obs.AliveWorkers(s.aliveN)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: i, Kind: trace.KindRecover, Value: epoch})
	}
	s.ctx.Logf("scheduler: worker %d re-admitted (membership epoch %d)", i, epoch)
	// A restarted worker boots under the configured gate, and any member
	// may have missed releases while it was out; bring it up to date. When
	// every member had been evicted nothing released the gate, so the
	// returning member may move it itself.
	s.resendScheme(i, now)
	if !s.advanceGate() {
		s.resendRelease(i, s.notifyCount[i])
	}
}

// sweepLiveness evicts every member whose last sign of life is stale.
func (s *Scheduler) sweepLiveness(now time.Time) {
	for i := 0; i < s.m; i++ {
		if s.alive[i] && now.Sub(s.lastSeen[i]) > s.cfg.LivenessTimeout {
			s.evict(i, now)
		}
	}
}

// evict removes worker i from membership: its speculation window is torn
// down, it no longer counts toward epoch boundaries, speculation thresholds
// or the gate's released clock, and the tuner ignores its history.
func (s *Scheduler) evict(i int, now time.Time) {
	s.alive[i] = false
	s.aliveN--
	epoch := s.membershipEpoch.Add(1)
	s.cfg.Faults.RecordEviction()
	s.cfg.Obs.Evict(now, i, epoch)
	s.cfg.Obs.AliveWorkers(s.aliveN)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: i, Kind: trace.KindEvict, Value: epoch})
	}
	s.ctx.Logf("scheduler: worker %d evicted (membership epoch %d)", i, epoch)
	s.dropFromCoordination(i, now)
}

// dropFromCoordination removes a worker that just left membership (eviction
// or planned retirement) from every coordination structure: speculation
// window, epoch bitmap and the gate.
func (s *Scheduler) dropFromCoordination(i int, now time.Time) {
	s.closeWindow(i)

	// The epoch may now be complete without the departed worker's push.
	if s.pushed[i] {
		s.pushed[i] = false
		s.pushedN--
	}
	if s.aliveN > 0 && s.pushedN == s.aliveN {
		s.epochBoundary(now)
	}

	// The released clock may have been pinned by the departed worker.
	s.advanceGate()
}

// Receive implements node.Handler.
func (s *Scheduler) Receive(from node.ID, m wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch mm := m.(type) {
	case *msg.Notify:
		s.handleNotify(from, mm)
	case *msg.NotifyV2:
		s.handleNotifyV2(from, mm)
	case *msg.Heartbeat:
		if i := node.WorkerIndex(from); i >= 0 && i < s.m {
			s.touch(i, s.ctx.Now())
		}
	case *msg.StateReport:
		if i := node.WorkerIndex(from); i >= 0 && i < s.m {
			s.handleStateReport(i, mm)
		}
	case *msg.JoinReq:
		s.handleJoinReq(from)
	case *msg.MigrateDone:
		s.handleMigrateDone(from, mm)
	case *msg.ScaleCmd:
		s.handleScaleCmd(mm)
	case *msg.Stop:
		// The harness signals shutdown; nothing to tear down centrally.
	default:
		s.ctx.Logf("scheduler: unexpected message %T from %s", m, from)
	}
}

// handleNotify is Algorithm 2's HandleNotification: record the push, start
// the sender's speculation window, and service the epoch and the gate.
func (s *Scheduler) handleNotify(from node.ID, n *msg.Notify) {
	i := node.WorkerIndex(from)
	if i < 0 || i >= s.m {
		s.ctx.Logf("scheduler: notify from non-worker %s", from)
		return
	}
	if s.cloneSlot(i) {
		s.handleCloneNotify(i, n)
		return
	}
	now := s.ctx.Now()
	s.touch(i, now)
	if s.routing != nil && !s.alive[i] {
		// A straggling notify from a retired (or not-yet-joined) elastic
		// slot: counting it into epochs or the gate would let a non-member
		// drive coordination.
		return
	}
	if s.mit != nil {
		// The worker's OWN completed count (clone notifies are translated in
		// handleCloneNotify and never reach here); stopClone compares it to
		// the clone-driven frontier to decide when the original caught up.
		if c := n.Iter + 1; c > s.mit.selfIter[i] {
			s.mit.selfIter[i] = c
		}
	}

	// Iteration-span estimate (includes abort/restart overheads, which is
	// what the loss model of Eq. 6 wants). On dynamic runs the straggler
	// detector is fed from worker-reported work spans instead (NotifyV2 in
	// handleNotifyV2): notify intervals synchronize under a barrier, so
	// they cannot tell a straggler from the fleet it is stalling.
	if !s.lastNotify[i].IsZero() {
		span := now.Sub(s.lastNotify[i])
		if span > 0 {
			a := s.cfg.SpanAlpha
			s.spanEWMA[i] = time.Duration((1-a)*float64(s.spanEWMA[i]) + a*float64(span))
			if s.workSpan == nil {
				s.cfg.Obs.WorkerSpan(now, i, s.spanEWMA[i])
			}
		}
	}
	s.lastNotify[i] = now

	s.recordPush(i, now)

	// The sender's clock. A notify that does not advance it is stale — a
	// duplicate, a race lost to a clone, or a cold-restarted worker
	// replaying iterations it had reported before the crash.
	next := n.Iter + 1
	advanced := next > s.notifyCount[i]
	if advanced {
		s.notifyCount[i] = next
	}

	// Epoch tracking: an epoch completes when every live member pushed at
	// least once since the previous boundary (paper Sec. II-B).
	if !s.pushed[i] {
		s.pushed[i] = true
		s.pushedN++
		if s.pushedN >= s.aliveN {
			s.epochBoundary(now)
		}
	}

	// Count this push into every other worker's open window, firing eager
	// re-syncs as thresholds are crossed.
	s.countIntoWindows(i, now)

	// Open the sender's speculation window (Algorithm 2 lines 5-10,
	// scheduler side) for the iteration it is about to compute. Behind a
	// bound of 0 nothing is stale, so speculation idles.
	if s.specEnabled && s.abortTime > 0 && s.cur.Bound != 0 {
		s.armWindow(i, next, now)
	}

	// The gate: a fresh clock may release the next one; a stale sender may
	// have missed the release that admits it.
	if advanced {
		s.advanceGate()
	} else {
		s.resendRelease(i, next)
	}

	s.viewAt = now
}

// recordPush appends one push to the bounded history.
func (s *Scheduler) recordPush(worker int, now time.Time) {
	s.history.Push(PushRecord{At: now, Worker: worker})
	s.histCount[worker]++
	if drop := s.history.Len() - s.cfg.HistoryLimit; drop > 0 {
		for _, rec := range s.history.Items()[:drop] {
			s.histCount[rec.Worker]--
		}
		s.history.Drop(drop)
	}
}

// handleNotifyV2 consumes the dynamic-run notify: the worker's self-measured
// work span (pull+compute+push, no barrier or gate waits) feeds the
// straggler detector — a signal independent of how tightly the active
// discipline synchronizes the fleet — and the rest is plain notify handling.
func (s *Scheduler) handleNotifyV2(from node.ID, n *msg.NotifyV2) {
	i := node.WorkerIndex(from)
	if i >= 0 && i < s.m && s.cloneSlot(i) {
		// A clone's span is the spare host's, not the straggler's: feeding it
		// would clear the target's flag and oscillate the clone on and off.
		s.handleCloneNotify(i, &msg.Notify{Iter: n.Iter})
		return
	}
	if i >= 0 && i < s.m && s.workSpan != nil && n.Span > 0 {
		a := s.cfg.SpanAlpha
		if s.workSpan[i] == 0 {
			s.workSpan[i] = n.Span
		} else {
			s.workSpan[i] = time.Duration((1-a)*float64(s.workSpan[i]) + a*float64(n.Span))
		}
		s.cfg.Obs.WorkerSpan(s.ctx.Now(), i, s.workSpan[i])
	}
	s.handleNotify(from, &msg.Notify{Iter: n.Iter})
}

// clusterView builds the /clusterz payload: per-worker push rates over the
// retained history window, the current speculation hyperparameters, and each
// worker's spec-window state. It is the source handed to Obs at Init and runs
// on the reader's goroutine, so it takes the lock; the notify path pays
// nothing for a view nobody asks for. ok is false until the scheduler has
// handled its first notify or state report.
func (s *Scheduler) clusterView() (obs.ClusterSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.viewAt.IsZero() {
		return obs.ClusterSnapshot{}, false
	}
	var window time.Duration
	if hist := s.history.Items(); len(hist) > 0 {
		window = s.viewAt.Sub(hist[0].At)
	}
	workers := make([]obs.WorkerState, s.m)
	for i := range workers {
		w := &s.windows[i]
		rate := 0.0
		if window > 0 {
			rate = float64(s.histCount[i]) / window.Seconds()
		}
		workers[i] = obs.WorkerState{
			Index:           i,
			Alive:           s.alive[i],
			PushRate:        rate,
			AbortRate:       s.rates[i],
			IterSpanSeconds: s.spanEWMA[i].Seconds(),
			WindowArmed:     w.armed,
			WindowCount:     w.cnt,
			WindowThreshold: int(math.Ceil(w.threshold)),
		}
	}
	return obs.ClusterSnapshot{
		At:               s.viewAt,
		Epoch:            s.epoch.Load(),
		MembershipEpoch:  s.membershipEpoch.Load(),
		SpecEnabled:      s.specEnabled,
		AbortTimeSeconds: s.abortTime.Seconds(),
		AliveWorkers:     s.aliveN,
		Workers:          workers,
		Generation:       s.cfg.Generation,
		RestoredFromCk:   s.restored,
		StateReports:     s.stateReports,
		Scheme:           s.cur.String(),
		SchemeEpoch:      s.schemeEpoch,
		SchemeSwitches:   s.switches.Load(),
		LastSwitchReason: s.lastSwitchWhy,
		LastSwitchAt:     s.lastSwitchAt,
	}, true
}

// handleStateReport consumes a worker's answer to SchedulerHello (or to a
// newer-generation beacon): it rebuilds the membership, epoch and gate
// state a restarted scheduler lost or holds stale from its checkpoint.
func (s *Scheduler) handleStateReport(i int, r *msg.StateReport) {
	now := s.ctx.Now()
	s.touch(i, now)
	s.stateReports++
	s.cfg.Faults.RecordStateReport()
	s.cfg.Obs.StateReport()

	// Pushes the scheduler never saw a Notify for happened while it was
	// down; fold them into the pushed-this-epoch bitmap.
	if r.Iter > s.notifyCount[i] {
		s.notifyCount[i] = r.Iter
		if !s.pushed[i] {
			s.pushed[i] = true
			s.pushedN++
			if s.pushedN >= s.aliveN {
				s.epochBoundary(now)
			}
		}
	}

	s.advanceGate()
	if r.Waiting {
		// The release this worker is parked on may have gone out while the
		// scheduler was down (or come from a checkpoint).
		s.resendRelease(i, r.Iter)
	}

	s.viewAt = now
}

// armWindow opens worker i's speculation window. Any previous window is
// replaced (it would have expired already in normal operation).
func (s *Scheduler) armWindow(i int, abortIter int64, now time.Time) {
	w := &s.windows[i]
	if w.cancel != nil {
		w.cancel()
	}
	rate := s.rates[i]
	if s.cfg.Scheme.Spec == scheme.SpecAdaptive {
		rate *= s.cfg.RateMargin
	}
	*w = specWindow{
		armed:     true,
		deadline:  now.Add(s.abortTime),
		iter:      abortIter,
		threshold: float64(s.aliveN) * rate,
	}
	w.cancel = s.ctx.After(s.abortTime, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.expireWindow(i, abortIter)
	})
}

// countIntoWindows is Algorithm 2's CheckResync counting, kept incrementally:
// the push just received from `pusher` lands in every other worker's open
// window. In eager mode the re-sync fires as soon as a window's threshold is
// met; in expiry mode the count is merely accumulated.
func (s *Scheduler) countIntoWindows(pusher int, now time.Time) {
	for i := range s.windows {
		w := &s.windows[i]
		if !w.armed || i == pusher {
			continue
		}
		if now.After(w.deadline) {
			w.armed = false
			continue
		}
		w.cnt++
		if !s.cfg.CheckAtExpiryOnly && s.thresholdMet(w) {
			s.fireResync(i, w)
		}
	}
}

// expireWindow is the paper's end-of-window check (and the disarm point for
// eager mode).
func (s *Scheduler) expireWindow(i int, abortIter int64) {
	w := &s.windows[i]
	if !w.armed || w.iter != abortIter {
		return
	}
	if s.cfg.CheckAtExpiryOnly && s.thresholdMet(w) {
		s.fireResync(i, w)
		return
	}
	w.armed = false
}

// thresholdMet applies cnt >= m*ABORT_RATE with the degenerate guard that
// zero fresh updates never justify a restart.
func (s *Scheduler) thresholdMet(w *specWindow) bool {
	return w.cnt >= 1 && float64(w.cnt) >= w.threshold
}

// closeWindow tears down worker i's speculation window.
func (s *Scheduler) closeWindow(i int) {
	w := &s.windows[i]
	if w.cancel != nil {
		w.cancel()
		w.cancel = nil
	}
	w.armed = false
}

func (s *Scheduler) fireResync(i int, w *specWindow) {
	s.closeWindow(i)
	s.resyncsSent.Add(1)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: s.ctx.Now(), Worker: i, Kind: trace.KindReSync, Iter: w.iter, Value: int64(w.cnt)})
	}
	s.cfg.Obs.ReSync(s.ctx.Now(), i, w.iter, w.cnt)
	s.ctx.Send(node.WorkerID(i), &msg.ReSync{Iter: w.iter})
}

// epochBoundary closes the epoch and, in adaptive mode, retunes the
// hyperparameters from the finished epoch's push history (Algorithm 1).
func (s *Scheduler) epochBoundary(now time.Time) {
	epoch := s.epoch.Add(1)
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Record(trace.Event{At: now, Worker: -1, Kind: trace.KindEpoch, Iter: epoch})
	}
	s.cfg.Obs.Epoch(now, epoch)
	if s.cfg.Scheme.Spec == scheme.SpecAdaptive {
		s.retune(now)
	}
	for i := range s.pushed {
		s.pushed[i] = false
	}
	s.pushedN = 0
	s.epochStart = now
	if s.dynamic() {
		s.maybeSwitch(now)
	}
}

func (s *Scheduler) retune(now time.Time) {
	// Pushes of the finished epoch drive candidate generation. Tune only
	// reads its inputs, so the scheduler's own slices go in uncopied.
	history := s.history.Items()
	s.epochPushes = s.epochPushes[:0]
	for _, rec := range history {
		if rec.At.After(s.epochStart) && !rec.At.After(now) {
			s.epochPushes = append(s.epochPushes, rec)
		}
	}

	tcfg := s.cfg.Tuner
	if s.aliveN < s.m {
		tcfg.Alive = s.alive
	}
	if tcfg.MaxAbort == 0 {
		// Default ceiling: half the mean iteration span of live members,
		// mirroring the paper's grid-search bound.
		var sum time.Duration
		n := 0
		for i, sp := range s.spanEWMA {
			if s.alive[i] {
				sum += sp
				n++
			}
		}
		if n > 0 {
			tcfg.MaxAbort = sum / time.Duration(2*n)
		}
	}

	tuning, err := s.tuner.Tune(tcfg, history, s.epochPushes, s.lastNotify, s.spanEWMA)
	if err != nil {
		s.ctx.Logf("scheduler: tuner error: %v; speculation paused", err)
		s.specEnabled = false
		return
	}
	s.tunes++
	s.specEnabled = tuning.Enabled
	if tuning.Enabled {
		s.abortTime = tuning.AbortTime
		copy(s.rates, tuning.Rates)
	}
	s.cfg.Obs.Tune(s.specEnabled, s.abortTime, metrics.Mean(s.rates))
	if s.cfg.OnTune != nil {
		s.cfg.OnTune(int(s.epoch.Load()), tuning)
	}
}

// Epoch returns the number of completed epochs. Safe for concurrent use.
func (s *Scheduler) Epoch() int { return int(s.epoch.Load()) }

// ReSyncsSent returns the number of re-sync instructions issued. Safe for
// concurrent use.
func (s *Scheduler) ReSyncsSent() int64 { return s.resyncsSent.Load() }

// Hyperparameters returns the current speculation state (for tests and
// experiment reporting).
func (s *Scheduler) Hyperparameters() (enabled bool, abortTime time.Duration, rates []float64) {
	out := make([]float64, len(s.rates))
	copy(out, s.rates)
	return s.specEnabled, s.abortTime, out
}

// SpanEstimates returns the current per-worker iteration span estimates.
func (s *Scheduler) SpanEstimates() []time.Duration {
	out := make([]time.Duration, len(s.spanEWMA))
	copy(out, s.spanEWMA)
	return out
}

// MembershipEpoch returns the number of membership changes (evictions plus
// re-admissions) observed so far. Safe for concurrent use.
func (s *Scheduler) MembershipEpoch() int64 { return s.membershipEpoch.Load() }

// Generation returns this scheduler's incarnation number (immutable after
// construction, so safe for concurrent use).
func (s *Scheduler) Generation() int64 { return s.cfg.Generation }

// Alive reports current membership (only meaningful from the scheduler's own
// goroutine/mailbox, e.g. in tests after the sim has drained).
func (s *Scheduler) Alive() []bool {
	out := make([]bool, len(s.alive))
	copy(out, s.alive)
	return out
}

// AliveCount returns the current live-member count (same caveat as Alive).
func (s *Scheduler) AliveCount() int { return s.aliveN }
