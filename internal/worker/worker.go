// Package worker implements the training worker of Algorithm 2: the
// pull / compute / push loop with speculative abort-and-restart, plus the
// gating required by the baseline schemes (the clock gate of BSP, SSP and
// PSP, and naïve pull delays).
//
// The worker is an event-driven state machine over node.Context, so the
// identical logic runs under the deterministic simulator and the live
// runtime. Gradient math executes for real; only the *duration* of the
// compute phase is modeled (ComputeModel), standing in for the paper's
// measured iteration times (Table I).
package worker

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/metrics"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/sparse"
	"specsync/internal/tensor"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// ComputeModel describes how long one gradient computation takes.
type ComputeModel struct {
	// Base is the nominal compute time per iteration on a speed-1 machine.
	Base time.Duration
	// Speed divides Base; heterogeneous clusters give workers different
	// speeds (paper Cluster 2: m3.xlarge ... m4.2xlarge).
	Speed float64
	// JitterSigma is the sigma of a mean-preserving lognormal multiplier,
	// modeling run-to-run variation. Zero disables jitter.
	JitterSigma float64
}

// Validate reports configuration errors.
func (c ComputeModel) Validate() error {
	if c.Base <= 0 {
		return fmt.Errorf("worker: compute base %v must be positive", c.Base)
	}
	if c.Speed <= 0 {
		return fmt.Errorf("worker: compute speed %v must be positive", c.Speed)
	}
	if c.JitterSigma < 0 {
		return fmt.Errorf("worker: negative jitter sigma")
	}
	return nil
}

// Sample draws one compute duration.
func (c ComputeModel) Sample(rng *rand.Rand) time.Duration {
	d := float64(c.Base) / c.Speed
	if c.JitterSigma > 0 {
		// exp(sigma*z - sigma^2/2) has mean 1.
		d *= math.Exp(c.JitterSigma*rng.NormFloat64() - c.JitterSigma*c.JitterSigma/2)
	}
	if d < float64(time.Microsecond) {
		d = float64(time.Microsecond)
	}
	return time.Duration(d)
}

// Slowdown scripts a transient compute slowdown: between From and Until
// (measured from the worker's Init) every sampled compute duration is
// multiplied by Factor. It draws no randomness, so a nil script leaves runs
// byte-identical; the scheme-switching tests use one to stage a sustained
// straggler that later recovers.
type Slowdown struct {
	Factor      float64
	From, Until time.Duration
}

// Validate reports configuration errors.
func (s Slowdown) Validate() error {
	if s.Factor < 1 {
		return fmt.Errorf("worker: slowdown factor %v must be >= 1", s.Factor)
	}
	if s.Until <= s.From || s.From < 0 {
		return fmt.Errorf("worker: slowdown window [%v, %v) is empty or negative", s.From, s.Until)
	}
	return nil
}

// SpeedWindow is one entry of a compute-speed script (Config.Script): the
// generalized, multi-window form of Slowdown that straggler plans compile
// into. Between From and Until (measured from the worker's Init; Until <= 0
// means the rest of the run) either every sampled compute duration is
// multiplied by Factor, or — when Pause is set — a compute that would begin
// inside the window is deferred until the window closes (the worker is
// frozen, not slow). Like Slowdown it draws no randomness, so an empty
// script leaves runs byte-identical. Overlapping factor windows compose
// multiplicatively.
type SpeedWindow struct {
	From, Until time.Duration
	Factor      float64
	Pause       bool
}

// Validate reports configuration errors.
func (s SpeedWindow) Validate() error {
	if s.From < 0 {
		return fmt.Errorf("worker: speed window starts at negative %v", s.From)
	}
	if s.Until > 0 && s.Until <= s.From {
		return fmt.Errorf("worker: speed window [%v, %v) is empty", s.From, s.Until)
	}
	if s.Pause {
		if s.Until <= 0 {
			return fmt.Errorf("worker: pause window needs an end (a never-ending pause is a crash, not a straggle)")
		}
		return nil
	}
	if s.Factor < 1 {
		return fmt.Errorf("worker: speed window factor %v must be >= 1", s.Factor)
	}
	return nil
}

// Config configures one worker.
type Config struct {
	// Index is this worker's index (also its data shard unless DataShard
	// overrides it).
	Index int
	// DataShard, when non-nil, is the data shard this worker trains instead
	// of shard Index. A rebalance replacement spawned into a spare slot
	// inherits its retired predecessor's shard this way, so the swap does
	// not orphan part of the training set.
	DataShard *int
	// Shards lists the parameter ranges owned by server/0..server/n-1.
	// Ignored when Routing is set.
	Shards []ps.Range
	// Routing, when non-nil, replaces Shards with an epoch-stamped table
	// mapping parameter ranges to server slots; the worker then follows
	// RoutingUpdate commits from the scheduler across live shard migrations
	// (see elastic.go). Nil keeps the legacy fixed-shard path, byte-for-byte.
	Routing *core.RoutingTable
	// JoinOnInit makes the worker introduce itself to the scheduler with a
	// JoinReq instead of waiting for a Start: it begins training when the
	// JoinAck arrives, seeded with the released clock and routing table.
	// Requires Routing (the ack carries a table). Used by workers that join
	// a running elastic cluster.
	JoinOnInit bool
	// Model is the workload; Grad/SampleBatch run on this worker's shard.
	Model model.Model
	// Scheme selects synchronization behaviour.
	Scheme scheme.Config
	// Compute models gradient computation time.
	Compute ComputeModel
	// Tracer, if non-nil, receives pull/push/abort events.
	Tracer trace.Tracer
	// Obs, if non-nil, receives phase transitions for latency histograms and
	// span tracing. Timestamps come from node.Context, so the same hook works
	// under the simulator (virtual time) and live (wall time).
	Obs *obs.WorkerObs
	// AbortLateFrac: a re-sync arriving after this fraction of the planned
	// compute duration is ignored ("if that is not too late yet", paper
	// Sec. IV-A). Zero means the default of 0.9.
	AbortLateFrac float64
	// MaxIters stops the worker after completing this many iterations;
	// zero means run until stopped.
	MaxIters int64
	// NumWorkers is the cluster size m; required only by the decentralized
	// (broadcast) speculation variant, which needs the peer list and the
	// m x ABORT_RATE threshold locally.
	NumWorkers int
	// HeartbeatEvery, when positive, makes the worker send a periodic
	// msg.Heartbeat to the scheduler as proof of life between pushes, so a
	// slow (but healthy) worker is not mistaken for a dead one by the
	// scheduler's failure detector. Zero disables heartbeats.
	HeartbeatEvery time.Duration
	// RetryAfter, when positive, re-issues an in-flight pull or push whose
	// responses have not all arrived within this duration. Requests sent to
	// a crashed shard die with it; without retries the worker would wait on
	// the lost response forever. Pushes resend only to unacknowledged
	// shards, giving at-least-once delivery (a shard that applied the
	// update but whose ack was lost applies it twice — acceptable for
	// SGD, where a duplicated gradient perturbs rather than corrupts).
	// Zero disables retries.
	RetryAfter time.Duration
	// SchedulerTimeout, when positive, enables the scheduler failure
	// detector: if no message from the scheduler (beacon, re-sync, release,
	// clock, hello) arrives within this duration, the worker enters
	// degraded mode — under a centralized speculation scheme it fails over
	// to the broadcast path (PushNotice to peers, local CheckResync) until
	// a SchedulerHello or newer-generation beacon flips it back. Zero
	// disables the detector.
	SchedulerTimeout time.Duration
	// FallbackAbortTime / FallbackAbortRate are the fixed speculation
	// hyperparameters of the degraded broadcast path (the scheduler's
	// adaptively-tuned values are unavailable while it is down). Zero
	// defaults to the scheme's fixed values when set, else ABORT_TIME =
	// Compute.Base/4 and ABORT_RATE = 0.22 (the cherry-pick defaults).
	FallbackAbortTime time.Duration
	FallbackAbortRate float64
	// Faults, if non-nil, receives degraded-mode transition counts.
	Faults *metrics.Faults
	// ReportSpans switches the end-of-iteration notify to msg.NotifyV2,
	// carrying the worker's self-measured work span (gate-exit to push-acked,
	// excluding gate waits). Runs with a gate policy or a straggler plan need
	// it: the gate synchronizes notify cadence across the fleet, so
	// scheduler-side arrival intervals stop distinguishing slow workers from
	// workers waiting at the gate.
	ReportSpans bool
	// Slowdown, if non-nil, scripts a transient compute slowdown window.
	Slowdown *Slowdown
	// Script is the multi-window compute-speed script straggler plans
	// compile into (pauses, sustained degradation, rack slowdowns). It
	// composes with Slowdown; an empty script changes nothing.
	Script []SpeedWindow
	// Codec selects the push/pull wire codecs. The zero value (raw) keeps
	// the legacy v1 messages and is byte-identical to a worker without the
	// codec layer; topk/q8 compress pushes with error-feedback residuals,
	// delta switches pulls to delta-encoded responses.
	Codec codec.Config
	// CodecStats, if non-nil, receives encode-side compression accounting.
	CodecStats *codec.Stats
}

// state is the worker's phase.
type state int

const (
	stateIdle state = iota
	statePulling
	stateComputing
	statePushing
	stateBarrier // parked at the gate, waiting for a release
	stateStopped
)

// Worker is the training worker state machine.
type Worker struct {
	ctx node.Context
	cfg Config

	st      state
	iter    int64
	started bool
	// shard is the data shard this worker trains (cfg.Index unless
	// cfg.DataShard overrides it).
	shard int

	// Routing view: the parameter ranges this worker pulls/pushes and the
	// server owning each. Legacy runs use the identity mapping over
	// cfg.Shards; elastic runs re-derive these on every RoutingUpdate.
	shards       []ps.Range
	shardIDs     []node.ID
	srvToShard   map[int]int
	routingEpoch int64

	// Pull state.
	pullSeq      uint64
	pullsPending int
	pullVersions []int64
	w            tensor.Vec

	// Compute state.
	computeCancel node.CancelFunc
	computeStart  time.Time
	computeDur    time.Duration

	// Push state.
	pushSeq      uint64
	acksPending  int
	stalenessSum int64
	pushUpdate   model.Update
	pushAcked    []bool

	// Codec state. pushCodec == nil means legacy v1 pushes; deltaPull
	// false means legacy v1 pulls.
	pushCodec codec.Codec
	deltaPull bool
	// residual holds the error-feedback state (one dense block per shard):
	// each push encodes gradient+residual, then keeps what the encoding
	// dropped for the next iteration.
	residual *codec.State
	// recon is encode scratch: the decoder-side reconstruction of the block
	// just encoded, sized to the largest shard.
	recon []float64
	// pushEnc holds this iteration's encoded per-shard payloads so retries
	// resend identical bytes instead of re-encoding (which would
	// double-count the residual). Each shard's writer is encoded into
	// directly and keeps its capacity across iterations.
	pushEnc []wire.Writer
	// pushPart is the raw sparse path's counterpart of pushEnc: per-shard
	// scratch the gradient's entries are rebased into on every send.
	pushPart []sparse.Vec
	// havePulled marks shards pulled at least once by this incarnation;
	// until then delta pulls advertise Have = -1 (no base).
	havePulled []bool

	// Sender-held per-iteration messages, refilled for every send: Send encodes
	// before it returns, so the worker may reuse them at once (DESIGN
	// "Message lifetime").
	pullReq   msg.PullReq
	pullReqV2 msg.PullReqV2
	pushReq   msg.PushReq
	pushReqV2 msg.PushReqV2
	notify    msg.Notify
	notifyV2  msg.NotifyV2

	// The gate: iteration k may start once k <= released + gate.Bound.
	// released is the highest released clock seen. Runs without a policy pin
	// the gate to the configured one; dynamic runs rewrite it from
	// SchemeSwitch messages, keyed by a monotonic scheme epoch so stale
	// broadcasts never roll back.
	gate        scheme.Gate
	released    int64
	schemeEpoch int64
	// workStart is when the current iteration's work began (after any gate
	// wait); ReportSpans runs measure the work span from it.
	workStart time.Time
	// initAt anchors the Slowdown script's window offsets.
	initAt time.Time

	// Decentralized-speculation state: local copy of peer push times. Also
	// used by the degraded-mode failover when the scheduler is lost.
	peerPushes core.Tail[time.Time]

	// Scheduler failure-detector state. degraded is atomic only so
	// live-mode monitors can read it; all writes happen on the worker's
	// event loop. schedID is the node currently serving as scheduler: the
	// well-known "scheduler" ID until a LeaderAnnounce (or a Hello/Beacon
	// from a newer generation) redirects the worker to an elected standby.
	degraded      atomic.Bool
	schedID       node.ID
	schedGen      int64 // highest scheduler incarnation seen
	schedLastSeen time.Time

	// Retry backoff state (nil when RetryAfter is zero). Each uses a
	// dedicated RNG so jitter draws never perturb ctx.Rand()'s
	// per-iteration sequence.
	pullBackoff *Backoff
	pushBackoff *Backoff

	// Counters (atomic: read by monitoring goroutines in live mode).
	itersDone  atomic.Int64
	abortCount atomic.Int64
	stopped    atomic.Bool
}

var _ node.Handler = (*Worker)(nil)

// New validates cfg and builds the worker.
func New(cfg Config) (*Worker, error) {
	if cfg.Index < 0 {
		return nil, fmt.Errorf("worker: negative index")
	}
	if len(cfg.Shards) == 0 && cfg.Routing == nil {
		return nil, fmt.Errorf("worker: no shards configured")
	}
	if cfg.JoinOnInit && cfg.Routing == nil {
		return nil, fmt.Errorf("worker: JoinOnInit requires Routing")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("worker: nil model")
	}
	shard := cfg.Index
	if cfg.DataShard != nil {
		shard = *cfg.DataShard
	}
	if shard < 0 || shard >= cfg.Model.NumShards() {
		return nil, fmt.Errorf("worker: data shard %d outside the model's %d shards", shard, cfg.Model.NumShards())
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Compute.Validate(); err != nil {
		return nil, err
	}
	if cfg.Slowdown != nil {
		if err := cfg.Slowdown.Validate(); err != nil {
			return nil, err
		}
	}
	for i, sw := range cfg.Script {
		if err := sw.Validate(); err != nil {
			return nil, fmt.Errorf("worker: script window %d: %w", i, err)
		}
	}
	if cfg.AbortLateFrac == 0 {
		cfg.AbortLateFrac = 0.9
	}
	if cfg.AbortLateFrac < 0 || cfg.AbortLateFrac > 1 {
		return nil, fmt.Errorf("worker: AbortLateFrac %v outside (0,1]", cfg.AbortLateFrac)
	}
	if cfg.Scheme.Decentralized {
		if cfg.NumWorkers < 2 {
			return nil, fmt.Errorf("worker: decentralized speculation requires NumWorkers >= 2, got %d", cfg.NumWorkers)
		}
		if cfg.Index >= cfg.NumWorkers {
			return nil, fmt.Errorf("worker: index %d >= NumWorkers %d", cfg.Index, cfg.NumWorkers)
		}
	}
	var shards []ps.Range
	var shardSrv []int
	var routingEpoch int64
	if cfg.Routing != nil {
		if err := cfg.Routing.Validate(); err != nil {
			return nil, fmt.Errorf("worker: %w", err)
		}
		shards, shardSrv = shardsFromRoutes(cfg.Routing.Shards)
		routingEpoch = cfg.Routing.Epoch
	} else {
		dim := 0
		for i, r := range cfg.Shards {
			if r.Len() <= 0 {
				return nil, fmt.Errorf("worker: shard %d empty", i)
			}
			if r.Lo != dim {
				return nil, fmt.Errorf("worker: shard %d not contiguous at %d", i, dim)
			}
			dim = r.Hi
		}
		shards = cfg.Shards
		shardSrv = make([]int, len(shards))
		for i := range shardSrv {
			shardSrv[i] = i
		}
	}
	if dim := shards[len(shards)-1].Hi; dim != cfg.Model.Dim() {
		return nil, fmt.Errorf("worker: shards cover %d params, model has %d", dim, cfg.Model.Dim())
	}
	if cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("worker: negative RetryAfter")
	}
	if cfg.SchedulerTimeout < 0 {
		return nil, fmt.Errorf("worker: negative SchedulerTimeout")
	}
	if cfg.FallbackAbortRate < 0 || cfg.FallbackAbortRate > 1 {
		return nil, fmt.Errorf("worker: FallbackAbortRate %v outside [0,1]", cfg.FallbackAbortRate)
	}
	if cfg.SchedulerTimeout > 0 && cfg.Scheme.Spec != scheme.SpecOff && !cfg.Scheme.Decentralized {
		if cfg.FallbackAbortTime == 0 {
			if cfg.Scheme.AbortTime > 0 {
				cfg.FallbackAbortTime = cfg.Scheme.AbortTime
			} else {
				cfg.FallbackAbortTime = cfg.Compute.Base / 4
			}
		}
		if cfg.FallbackAbortRate == 0 {
			if cfg.Scheme.AbortRate > 0 {
				cfg.FallbackAbortRate = cfg.Scheme.AbortRate
			} else {
				cfg.FallbackAbortRate = 0.22
			}
		}
	}
	pushCodec, deltaPull, err := codec.Build(cfg.Codec)
	if err != nil {
		return nil, err
	}
	wk := &Worker{
		cfg:          cfg,
		shard:        shard,
		schedID:      node.Scheduler,
		pullVersions: make([]int64, len(shards)),
		pushAcked:    make([]bool, len(shards)),
		w:            tensor.NewVec(cfg.Model.Dim()),
		pushCodec:    pushCodec,
		deltaPull:    deltaPull,
		routingEpoch: routingEpoch,
		gate:         cfg.Scheme.Gate(),
	}
	wk.setShards(shards, shardSrv)
	if deltaPull {
		wk.havePulled = make([]bool, len(shards))
	}
	if pushCodec != nil {
		lens := make([]int, len(shards))
		maxLen := 0
		for i, r := range shards {
			lens[i] = r.Len()
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		wk.residual = codec.NewState(lens)
		wk.recon = make([]float64, maxLen)
		wk.pushEnc = make([]wire.Writer, len(shards))
	}
	return wk, nil
}

// setShards installs a routing view: the pull/push ranges and the server slot
// owning each.
func (wk *Worker) setShards(shards []ps.Range, shardSrv []int) {
	wk.shards = shards
	wk.shardIDs = make([]node.ID, len(shardSrv))
	wk.pushPart = make([]sparse.Vec, len(shards))
	wk.srvToShard = make(map[int]int, len(shardSrv))
	for i, s := range shardSrv {
		wk.shardIDs[i] = node.ServerID(s)
		wk.srvToShard[s] = i
	}
}

// shardIndexOf maps a responding server to the shard index it owns under the
// current routing view, or -1 for a node that owns nothing (e.g. a response
// from a shard retired by a migration that committed mid-flight).
func (wk *Worker) shardIndexOf(from node.ID) int {
	srv := node.ServerIndex(from)
	if srv < 0 {
		return -1
	}
	si, ok := wk.srvToShard[srv]
	if !ok {
		return -1
	}
	return si
}

// Init implements node.Handler.
func (wk *Worker) Init(ctx node.Context) {
	wk.ctx = ctx
	wk.schedLastSeen = ctx.Now()
	wk.initAt = ctx.Now()
	if wk.cfg.RetryAfter > 0 {
		// backoffSeed is an arbitrary fixed master seed: the jitter stream
		// must be deterministic per node but independent of the run's
		// training seed (ctx.Rand()), whose draw order is pinned by tests.
		const backoffSeed = 0x626b6f66 // "bkof"
		rng := rand.New(rand.NewSource(node.RandSeed(backoffSeed, ctx.Self())))
		wk.pullBackoff = NewBackoff(wk.cfg.RetryAfter, rng)
		wk.pushBackoff = NewBackoff(wk.cfg.RetryAfter, rng)
	}
	if wk.cfg.HeartbeatEvery > 0 {
		wk.armHeartbeat()
	}
	if wk.cfg.SchedulerTimeout > 0 {
		wk.armSchedulerWatch()
	}
	if wk.cfg.JoinOnInit {
		wk.sendJoinReq()
	}
}

// armHeartbeat schedules the periodic liveness beacon. It keeps beating from
// Init until the worker stops, independent of training progress — the beat
// asserts the process is alive, not that it is making progress.
func (wk *Worker) armHeartbeat() {
	wk.ctx.After(wk.cfg.HeartbeatEvery, func() {
		if wk.st == stateStopped {
			return
		}
		wk.ctx.Send(wk.schedID, &msg.Heartbeat{Iter: wk.iter})
		wk.armHeartbeat()
	})
}

// Receive implements node.Handler.
func (wk *Worker) Receive(from node.ID, m wire.Message) {
	if wk.st == stateStopped {
		return
	}
	if from == wk.schedID {
		wk.schedLastSeen = wk.ctx.Now()
	}
	switch mm := m.(type) {
	case *msg.Start:
		if !wk.started {
			wk.started = true
			wk.beginIteration()
		}
	case *msg.Stop:
		wk.stop()
	case *msg.PullResp:
		wk.handlePullResp(from, mm)
	case *msg.PullRespV2:
		wk.handlePullRespV2(from, mm)
	case *msg.PushAck:
		wk.handlePushAck(from, mm)
	case *msg.ReSync:
		wk.handleReSync(mm)
	case *msg.Release:
		wk.handleRelease(mm.Clock)
	case *msg.SchemeSwitch:
		wk.handleSchemeSwitch(mm)
	case *msg.PushNotice:
		wk.handlePushNotice(from)
	case *msg.SchedulerHello:
		wk.noteSchedulerGen(from, mm.Gen)
	case *msg.SchedulerBeacon:
		wk.noteSchedulerGen(from, mm.Gen)
	case *msg.LeaderAnnounce:
		wk.noteSchedulerGen(from, mm.Gen)
	case *msg.JoinAck:
		wk.handleJoinAck(mm)
	case *msg.RoutingUpdate:
		wk.handleRoutingUpdate(mm)
	case *msg.CloneCtl:
		wk.handleCloneCtl(mm)
	default:
		wk.ctx.Logf("worker: unexpected message %T from %s", m, from)
	}
}

func (wk *Worker) stop() {
	wk.st = stateStopped
	wk.stopped.Store(true)
	if wk.computeCancel != nil {
		wk.computeCancel()
		wk.computeCancel = nil
	}
}

// handleCloneCtl starts a backup (clone) worker mirroring a straggler's
// iteration stream. The clone was built with Index = the straggler's index —
// same data shard, same push attribution — but idles at Init (it never
// receives a Start); the scheduler's CloneCtl seeds it with the straggler's
// current iteration and the released clock so it neither re-runs history nor
// parks forever behind a release it never saw.
func (wk *Worker) handleCloneCtl(cc *msg.CloneCtl) {
	if wk.started {
		return // duplicate ctl
	}
	wk.started = true
	wk.iter = cc.StartIter
	wk.released = max(wk.released, cc.Released)
	wk.ctx.Logf("worker: cloning worker %d from iteration %d", wk.cfg.Index, cc.StartIter)
	wk.beginIteration()
}

// beginIteration passes the gate and then sends the pulls; a worker the
// gate holds parks until a release or a scheme switch admits it.
func (wk *Worker) beginIteration() {
	if wk.st == stateStopped {
		return
	}
	if !wk.gate.Unbounded() && wk.iter > wk.released+int64(wk.gate.Bound) {
		wk.st = stateBarrier
		return
	}
	wk.workStart = wk.ctx.Now()
	if d := wk.cfg.Scheme.NaiveWait; d > 0 {
		// Naïve waiting (paper Sec. III-B): delay the pull request itself.
		wk.st = statePulling
		wk.ctx.After(d, func() {
			if wk.st == statePulling {
				wk.startPull()
			}
		})
		return
	}
	wk.startPull()
}

// startPull requests every shard's parameters. Responses from a previous
// (aborted) pull round carry a stale Seq and are discarded.
func (wk *Worker) startPull() {
	wk.st = statePulling
	wk.cfg.Obs.PullStart(wk.ctx.Now(), wk.iter)
	wk.pullSeq++
	wk.pullsPending = len(wk.shards)
	for i := range wk.shards {
		if wk.deltaPull {
			have := int64(-1)
			if wk.havePulled[i] {
				have = wk.pullVersions[i]
			}
			wk.pullReqV2 = msg.PullReqV2{Seq: wk.pullSeq, Have: have}
			wk.ctx.Send(wk.shardIDs[i], &wk.pullReqV2)
		} else {
			wk.pullReq = msg.PullReq{Seq: wk.pullSeq}
			wk.ctx.Send(wk.shardIDs[i], &wk.pullReq)
		}
	}
	if wk.pullBackoff != nil {
		seq := wk.pullSeq
		wk.ctx.After(wk.pullBackoff.Next(), func() {
			// Still waiting on this pull round: a shard crashed (or the
			// responses were dropped). Re-pull everything — reads are
			// idempotent and the Seq bump invalidates stragglers.
			if wk.st == statePulling && wk.pullSeq == seq && wk.pullsPending > 0 {
				wk.startPull()
			}
		})
	}
}

func (wk *Worker) handlePullResp(from node.ID, resp *msg.PullResp) {
	if wk.st != statePulling || resp.Seq != wk.pullSeq {
		return // stale response from before an abort
	}
	si := wk.shardIndexOf(from)
	if si < 0 {
		wk.ctx.Logf("worker: pull response from unexpected node %s", from)
		return
	}
	r := wk.shards[si]
	if len(resp.Values) != r.Len() {
		wk.ctx.Logf("worker: shard %d returned %d values, want %d", si, len(resp.Values), r.Len())
		return
	}
	copy(wk.w[r.Lo:r.Hi], resp.Values)
	wk.finishShardPull(si, resp.Version)
}

// handlePullRespV2 is the codec-path sibling of handlePullResp: the payload
// is a codec block, either full (Base < 0) or a delta against the block this
// worker last applied for the shard.
func (wk *Worker) handlePullRespV2(from node.ID, resp *msg.PullRespV2) {
	if wk.st != statePulling || resp.Seq != wk.pullSeq {
		return // stale response from before an abort
	}
	si := wk.shardIndexOf(from)
	if si < 0 {
		wk.ctx.Logf("worker: pull response from unexpected node %s", from)
		return
	}
	r := wk.shards[si]
	block := wk.w[r.Lo:r.Hi]
	id := codec.ID(resp.Codec)
	if resp.Base >= 0 {
		// A delta only decodes against the exact base it was computed from.
		// The server caches what it last sent us and deltas only on a Have
		// match, so a mismatch here means a protocol bug or corruption —
		// drop and let the retry path re-pull a full block.
		if wk.havePulled == nil || !wk.havePulled[si] || resp.Base != wk.pullVersions[si] {
			wk.ctx.Logf("worker: shard %d delta against version %d, have %d; dropped",
				si, resp.Base, wk.pullVersions[si])
			return
		}
	}
	if err := codec.DecodePayload(id, resp.Payload, block); err != nil {
		wk.ctx.Logf("worker: shard %d pull: %v; dropped", si, err)
		return
	}
	if wk.havePulled != nil {
		wk.havePulled[si] = true
	}
	wk.finishShardPull(si, resp.Version)
}

// finishShardPull records one shard's completed pull and starts compute once
// every shard has answered.
func (wk *Worker) finishShardPull(si int, version int64) {
	wk.pullVersions[si] = version
	wk.pullsPending--
	if wk.pullsPending == 0 {
		if wk.pullBackoff != nil {
			wk.pullBackoff.Reset()
		}
		wk.record(trace.KindPull, 0)
		wk.cfg.Obs.PullDone(wk.ctx.Now(), wk.iter)
		wk.startCompute()
	}
}

// startCompute samples this attempt's duration and schedules completion.
// The actual gradient math runs at completion time against the parameters
// pulled at the start of the attempt — exactly the staleness semantics of
// asynchronous SGD.
func (wk *Worker) startCompute() {
	wk.st = stateComputing
	wk.computeStart = wk.ctx.Now()
	wk.computeDur = wk.cfg.Compute.Sample(wk.ctx.Rand())
	if s := wk.cfg.Slowdown; s != nil {
		if at := wk.computeStart.Sub(wk.initAt); at >= s.From && at < s.Until {
			wk.computeDur = time.Duration(float64(wk.computeDur) * s.Factor)
		}
	}
	for _, sw := range wk.cfg.Script {
		at := wk.computeStart.Sub(wk.initAt)
		if at < sw.From || (sw.Until > 0 && at >= sw.Until) {
			continue
		}
		if sw.Pause {
			// Frozen until the window closes; the deferred compute then
			// runs at full speed.
			wk.computeDur += sw.Until - at
		} else {
			wk.computeDur = time.Duration(float64(wk.computeDur) * sw.Factor)
		}
	}
	wk.computeCancel = wk.ctx.After(wk.computeDur, wk.finishCompute)
	if wk.cfg.Scheme.Decentralized || (wk.degraded.Load() && wk.canBroadcastFailover()) {
		wk.armLocalSpeculation()
	}
}

// handleReSync implements the abort-and-restart path (Algorithm 2 worker
// lines 5-7).
func (wk *Worker) handleReSync(rs *msg.ReSync) {
	if wk.st != stateComputing || rs.Iter != wk.iter {
		return // too late: that iteration already completed (or never started)
	}
	elapsed := wk.ctx.Now().Sub(wk.computeStart)
	if float64(elapsed) >= wk.cfg.AbortLateFrac*float64(wk.computeDur) {
		// Nearly done; restarting now would cost more than the fresher
		// parameters can recover.
		return
	}
	if wk.computeCancel != nil {
		wk.computeCancel()
		wk.computeCancel = nil
	}
	wk.abortCount.Add(1)
	wk.record(trace.KindAbort, int64(elapsed/time.Millisecond))
	wk.cfg.Obs.Abort(wk.ctx.Now(), wk.iter)
	wk.startPull() // re-pull fresher parameters and start over
}

// finishCompute runs the gradient math and pushes the result to every shard.
func (wk *Worker) finishCompute() {
	if wk.st != stateComputing {
		return
	}
	wk.computeCancel = nil

	batch := wk.cfg.Model.SampleBatch(wk.shard, wk.ctx.Rand())
	wk.pushUpdate = wk.cfg.Model.Grad(wk.w, batch)
	if wk.pushCodec != nil {
		wk.encodePush()
	}
	for si := range wk.pushAcked {
		wk.pushAcked[si] = false
	}
	wk.stalenessSum = 0
	wk.cfg.Obs.ComputeDone(wk.ctx.Now(), wk.iter)
	wk.sendPush()
}

// encodePush folds this iteration's gradient into the error-feedback
// residuals and encodes one payload per shard. Encoding happens exactly once
// per iteration — retries resend the stored payloads — because the residual
// update (residual = accumulated - reconstructed) must be applied once. The
// steady state allocates nothing: see encodeResiduals.
func (wk *Worker) encodePush() {
	for si, r := range wk.shards {
		res := wk.residual.Residuals[si]
		if wk.pushUpdate.IsSparse() {
			sp := wk.pushUpdate.Sparse
			j := sort.Search(len(sp.Idx), func(i int) bool { return int(sp.Idx[i]) >= r.Lo })
			for ; j < len(sp.Idx) && int(sp.Idx[j]) < r.Hi; j++ {
				res[int(sp.Idx[j])-r.Lo] += sp.Val[j]
			}
		} else {
			for j, v := range wk.pushUpdate.Dense[r.Lo:r.Hi] {
				res[j] += v
			}
		}
	}
	wk.encodeResiduals()
}

// encodeResiduals encodes one payload per shard from the residual as it
// stands, debiting what each encoding captured. It writes into the shard's
// own writer and hands the codec wk.recon as scratch, so nothing is
// allocated once the writers have grown to the payload size.
func (wk *Worker) encodeResiduals() {
	for si, r := range wk.shards {
		res := wk.residual.Residuals[si]
		recon := wk.recon[:r.Len()]
		w := &wk.pushEnc[si]
		w.Reset()
		wk.pushCodec.Encode(w, res, nil, recon, wk.ctx.Rand())
		for j := range res {
			res[j] -= recon[j]
		}
		if wk.cfg.CodecStats != nil {
			wk.cfg.CodecStats.RecordEncode(wk.pushCodec.ID(), 8*r.Len(), w.Len())
		}
	}
}

// sendPush sends the computed update to every shard that has not yet
// acknowledged it, and (with RetryAfter set) arms a retry for the round.
func (wk *Worker) sendPush() {
	wk.st = statePushing
	wk.pushSeq++
	wk.acksPending = 0
	for si, r := range wk.shards {
		if wk.pushAcked[si] {
			continue
		}
		wk.acksPending++
		if wk.pushCodec != nil {
			wk.pushReqV2 = msg.PushReqV2{
				Seq:         wk.pushSeq,
				Iter:        wk.iter,
				PullVersion: wk.pullVersions[si],
				Codec:       uint8(wk.pushCodec.ID()),
				Payload:     wk.pushEnc[si].Bytes(),
			}
			wk.ctx.Send(wk.shardIDs[si], &wk.pushReqV2)
			continue
		}
		req := &wk.pushReq
		*req = msg.PushReq{
			Seq:         wk.pushSeq,
			Iter:        wk.iter,
			PullVersion: wk.pullVersions[si],
		}
		if wk.pushUpdate.IsSparse() {
			part := wk.pushUpdate.Sparse.SliceInto(wk.pushPart[si], int32(r.Lo), int32(r.Hi))
			wk.pushPart[si] = part
			req.IsSparse = true
			req.SparseIdx = part.Idx
			req.SparseVal = part.Val
		} else {
			req.Dense = wk.pushUpdate.Dense[r.Lo:r.Hi]
		}
		wk.ctx.Send(wk.shardIDs[si], req)
	}
	if wk.pushBackoff != nil {
		seq := wk.pushSeq
		wk.ctx.After(wk.pushBackoff.Next(), func() {
			if wk.st == statePushing && wk.pushSeq == seq && wk.acksPending > 0 {
				wk.sendPush()
			}
		})
	}
}

func (wk *Worker) handlePushAck(from node.ID, ack *msg.PushAck) {
	if wk.st != statePushing || ack.Seq != wk.pushSeq {
		return
	}
	si := wk.shardIndexOf(from)
	if si < 0 || wk.pushAcked[si] {
		return
	}
	wk.pushAcked[si] = true
	wk.stalenessSum += ack.Staleness
	wk.acksPending--
	if wk.acksPending > 0 {
		return
	}
	wk.finishPush()
}

// finishPush completes one iteration after every shard acknowledged the push:
// record, notify the scheduler, move on (Algorithm 2 worker lines 8-10; the
// pull for the next iteration is issued immediately, so the notify timestamp
// doubles as the pull-time proxy the tuner uses).
func (wk *Worker) finishPush() {
	// Every Send of the gradient has encoded it; the model may have it back.
	wk.pushUpdate.Release()
	wk.pushUpdate = model.Update{}
	if wk.pushBackoff != nil {
		wk.pushBackoff.Reset()
	}
	wk.record(trace.KindPush, 0)
	wk.record(trace.KindStaleness, wk.stalenessSum/int64(len(wk.shards)))
	wk.cfg.Obs.PushDone(wk.ctx.Now(), wk.iter, wk.stalenessSum/int64(len(wk.shards)))
	if wk.cfg.Scheme.Decentralized {
		// Broadcast design: announce the push to every peer. Under plain
		// ASP the scheduler is not involved at all; a bounded gate still
		// needs the notify for its releases.
		wk.broadcastNotices()
		if !wk.gate.Unbounded() {
			wk.ctx.Send(wk.schedID, &msg.Notify{Iter: wk.iter})
		}
	} else {
		// Degraded failover: peers run local speculation off PushNotices
		// while the scheduler is down. The Notify still goes out — it is
		// lost on a dead scheduler and warms the new incarnation otherwise.
		if wk.degraded.Load() && wk.canBroadcastFailover() {
			wk.broadcastNotices()
		}
		wk.sendNotify()
	}

	wk.itersDone.Add(1)
	wk.iter++
	if wk.cfg.MaxIters > 0 && wk.itersDone.Load() >= wk.cfg.MaxIters {
		wk.stop()
		return
	}
	wk.beginIteration()
}

// sendNotify reports the finished iteration to the scheduler; ReportSpans
// runs use NotifyV2 so the straggler signal survives gate-synchronized
// notify cadence (see Config.ReportSpans).
func (wk *Worker) sendNotify() {
	if wk.cfg.ReportSpans {
		wk.notifyV2 = msg.NotifyV2{Iter: wk.iter, Span: wk.ctx.Now().Sub(wk.workStart)}
		wk.ctx.Send(wk.schedID, &wk.notifyV2)
		return
	}
	wk.notify = msg.Notify{Iter: wk.iter}
	wk.ctx.Send(wk.schedID, &wk.notify)
}

// handleSchemeSwitch retargets this worker onto the scheduler's new gate.
// The message's released clock is the scheduler's rebuilt baseline; a worker
// parked at the outgoing gate re-evaluates under the incoming one at once.
// In-flight pulls, computes, and pushes are untouched — none of them depend
// on the gate.
func (wk *Worker) handleSchemeSwitch(sw *msg.SchemeSwitch) {
	if sw.Epoch <= wk.schemeEpoch {
		return // stale or duplicated broadcast (restart re-announce, resend)
	}
	wk.schemeEpoch = sw.Epoch
	wk.gate = scheme.Gate{Bound: int(sw.Bound), Quorum: sw.Quorum}
	wk.ctx.Logf("worker %d: scheme switch #%d → %s (%s)", wk.cfg.Index, sw.Epoch, wk.gate, sw.Reason)
	wk.handleRelease(sw.Released)
}

// handleRelease adopts a released clock (never regressing) and lets a
// parked worker re-check the gate: a stale or duplicated release — the
// kind a duplicating or delaying network delivers — leaves it parked.
func (wk *Worker) handleRelease(clock int64) {
	wk.released = max(wk.released, clock)
	if wk.st == stateBarrier {
		wk.beginIteration()
	}
}

func (wk *Worker) record(kind trace.Kind, value int64) {
	if wk.cfg.Tracer == nil {
		return
	}
	wk.cfg.Tracer.Record(trace.Event{
		At:     wk.ctx.Now(),
		Worker: wk.cfg.Index,
		Kind:   kind,
		Iter:   wk.iter,
		Value:  value,
	})
}

// IterationsDone returns the number of completed (pushed) iterations. It is
// safe to call from other goroutines (live-mode monitoring).
func (wk *Worker) IterationsDone() int64 { return wk.itersDone.Load() }

// Aborts returns the number of abort-and-restart events. Safe for concurrent
// use.
func (wk *Worker) Aborts() int64 { return wk.abortCount.Load() }

// Stopped reports whether the worker has halted. Safe for concurrent use.
func (wk *Worker) Stopped() bool { return wk.stopped.Load() }

// CodecState returns the worker's error-feedback residual store, or nil when
// the configured push codec keeps none (raw/delta). Like the server's Params,
// it must only be read from the worker's event loop (live checkpointing goes
// through the host's Do).
func (wk *Worker) CodecState() *codec.State { return wk.residual }

// RestoreCodecState replaces the residual store, e.g. from a worker
// checkpoint, so pending error-feedback mass survives a restart. The
// snapshot's shard shapes must match this worker's.
func (wk *Worker) RestoreCodecState(st *codec.State) error {
	if wk.residual == nil {
		return fmt.Errorf("worker: codec %q keeps no residual state", wk.cfg.Codec.Name)
	}
	lens := make([]int, len(wk.shards))
	for i, r := range wk.shards {
		lens[i] = r.Len()
	}
	if !st.Matches(lens) {
		return fmt.Errorf("worker: residual snapshot shape mismatch")
	}
	wk.residual = st
	return nil
}
