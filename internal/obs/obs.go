// Package obs is the runtime observability layer: a low-overhead metrics
// registry (atomic counters, gauges, and fixed-bucket histograms with
// Prometheus text exposition), per-iteration span tracing of the
// pull→compute→push/abort lifecycle with abort-causality links back to the
// triggering re-sync, and HTTP exposition (/metrics, /healthz, /clusterz).
//
// Components record through nil-safe handles (WorkerObs, SchedulerObs,
// ServerObs) using timestamps from their node.Context, so the same code path
// produces virtual-time telemetry under the DES simulator and wall-clock
// telemetry in live deployments. Recording never sends messages or schedules
// timers, so instrumentation cannot perturb simulated runs: two sim runs
// with the same seed export byte-identical span traces.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specsync/internal/trace"
)

// Options configures an Obs instance.
type Options struct {
	// Spans retains per-phase span records in memory for later export as
	// Chrome trace-event JSON. Off by default — a long run produces three
	// spans per iteration per worker.
	Spans bool

	// FlightCapacity bounds the always-on flight recorder ring
	// (DefaultFlightCapacity when zero).
	FlightCapacity int

	// Stragglers tunes the straggler detector; zero values pick defaults.
	Stragglers StragglerOptions
}

// Obs bundles the metrics registry, the optional span log, and the sources
// of the /clusterz view. A nil *Obs yields nil handles, so wiring is optional
// at every layer.
type Obs struct {
	reg        *Registry
	spans      *SpanLog
	flight     *FlightRecorder
	stragglers *StragglerDetector

	pullH    *Histogram
	computeH *Histogram
	pushH    *Histogram
	restartH *Histogram
	staleH   *Histogram

	// cluster is the fleet-level view a job manager composes and publishes;
	// single-job runs leave it nil and serve clusterSrc[""] instead.
	cluster atomic.Pointer[ClusterSnapshot]

	// schedLease is the most recent leader report from SchedulerRole, so
	// /healthz can expose who is serving and at which term.
	schedLease atomic.Pointer[leaderLease]

	// clusterSrc holds, per job label ("" outside a multi-tenant fleet), the
	// function its scheduler registered to build that job's view on request.
	clusterSrc sync.Map // string -> func() (ClusterSnapshot, bool)
}

// New builds an Obs with the standard SpecSync metric families registered.
func New(opts Options) *Obs {
	reg := NewRegistry()
	o := &Obs{reg: reg}
	if opts.Spans {
		o.spans = NewSpanLog()
	}
	o.flight = NewFlightRecorder(opts.FlightCapacity)
	o.stragglers = newStragglerDetector(opts.Stragglers, reg, o.spans, o.flight)
	o.pullH = reg.Histogram("specsync_pull_seconds",
		"Latency of one parameter pull (request fan-out to last shard response).", LatencyBuckets)
	o.computeH = reg.Histogram("specsync_compute_seconds",
		"Duration of one gradient computation (pull completion to push start).", LatencyBuckets)
	o.pushH = reg.Histogram("specsync_push_seconds",
		"Latency of one gradient push (fan-out to last shard ack).", LatencyBuckets)
	o.restartH = reg.Histogram("specsync_abort_restart_seconds",
		"Abort-to-restart latency (re-sync abort to completion of the fresh pull).", LatencyBuckets)
	o.staleH = reg.Histogram("specsync_push_staleness",
		"Mean per-shard staleness of each acknowledged push (peer updates applied between pull and push).", StalenessBuckets)
	return o
}

// Registry returns the underlying metrics registry (nil on a nil Obs).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Spans returns the span log, or nil when span retention is disabled.
func (o *Obs) Spans() *SpanLog {
	if o == nil {
		return nil
	}
	return o.spans
}

// Flight returns the always-on control-plane flight recorder.
func (o *Obs) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.flight
}

// FlightDump snapshots the flight recorder for /debugz and run results.
func (o *Obs) FlightDump() FlightDump {
	if o == nil {
		return FlightDump{}
	}
	return o.flight.Dump()
}

// RecordFlight appends one control-plane event to the flight recorder.
// Components outside obs (the job manager, fault injectors) use this.
func (o *Obs) RecordFlight(ev FlightEvent) {
	if o == nil {
		return
	}
	o.flight.Record(ev)
}

// SchedulerRole exports one scheduler incarnation's replication role and
// current term: specsync_scheduler_role{node,role} is 1 for the node's
// current role and 0 for the others, and specsync_scheduler_term{node}
// carries the term. Nil-safe.
func (o *Obs) SchedulerRole(nodeID, role string, term int64) {
	if o == nil {
		return
	}
	for _, r := range []string{"follower", "candidate", "leader"} {
		v := 0.0
		if r == role {
			v = 1
		}
		o.reg.Gauge("specsync_scheduler_role",
			"Scheduler incarnation replication role (1 = current role).",
			"node", nodeID, "role", r).Set(v)
	}
	o.reg.Gauge("specsync_scheduler_term",
		"Scheduler replication term this incarnation has seen (serving term once leader).",
		"node", nodeID).Set(float64(term))
	if role == "leader" {
		o.schedLease.Store(&leaderLease{node: nodeID, term: term})
	}
}

// leaderLease records the latest leader report (node + term).
type leaderLease struct {
	node string
	term int64
}

// LeaderLease returns the most recently reported leader incarnation and its
// term. ok is false until some incarnation has reported itself leader —
// i.e. always false in runs without scheduler replication.
func (o *Obs) LeaderLease() (node string, term int64, ok bool) {
	if o == nil {
		return "", 0, false
	}
	l := o.schedLease.Load()
	if l == nil {
		return "", 0, false
	}
	return l.node, l.term, true
}

// Stragglers returns the straggler detector.
func (o *Obs) Stragglers() *StragglerDetector {
	if o == nil {
		return nil
	}
	return o.stragglers
}

// StragglerSnapshot renders the detector state for /stragglerz.
func (o *Obs) StragglerSnapshot() (StragglerSnapshot, bool) {
	if o == nil {
		return StragglerSnapshot{}, false
	}
	return o.stragglers.Snapshot()
}

// SetTracer routes obs-originated events (straggler flag transitions) into a
// trace collector alongside the components' own events.
func (o *Obs) SetTracer(t trace.Tracer) {
	if o == nil {
		return
	}
	o.stragglers.setTracer(t)
}

// ClusterSnapshot returns the cluster view: the fleet-level one a job manager
// published, or else the scheduler's, built now from its current state.
func (o *Obs) ClusterSnapshot() (ClusterSnapshot, bool) {
	if o == nil {
		return ClusterSnapshot{}, false
	}
	if p := o.cluster.Load(); p != nil {
		return *p, true
	}
	return o.JobClusterSnapshot("")
}

// PublishCluster stores a cluster view directly (fleet-level composition by
// the job manager; a scheduler registers a ClusterSource instead).
func (o *Obs) PublishCluster(snap ClusterSnapshot) {
	if o == nil {
		return
	}
	o.cluster.Store(&snap)
}

// JobClusterSnapshot builds one job's scheduler view from the source that
// scheduler registered, decorating each worker row with its straggler score
// and flag level. ok is false until the scheduler has something to show.
func (o *Obs) JobClusterSnapshot(job string) (ClusterSnapshot, bool) {
	if o == nil {
		return ClusterSnapshot{}, false
	}
	src, ok := o.clusterSrc.Load(job)
	if !ok {
		return ClusterSnapshot{}, false
	}
	snap, ok := src.(func() (ClusterSnapshot, bool))()
	if ok {
		o.stragglers.decorate(job, snap.Workers)
	}
	return snap, ok
}

// JobView namespaces handles for one tenant of a multi-job fleet: every
// series its Worker/Server/Scheduler handles create carries an extra
// ("job", name) label pair, so two jobs' worker 0 do not collide in the
// shared registry, and the per-job scheduler registers its cluster view under
// the job's name instead of as the fleet-level one. Summary still totals across
// all jobs (SumCounters ignores labels).
type JobView struct {
	o   *Obs
	job string
}

// Job returns the handle namespace for one job.
func (o *Obs) Job(name string) JobView { return JobView{o: o, job: name} }

// Worker returns the job-labeled handle for worker i.
func (v JobView) Worker(i int) *WorkerObs { return v.o.worker(i, v.job) }

// Server returns the job-labeled handle for one shard slot.
func (v JobView) Server(shard int) *ServerObs { return v.o.server(shard, v.job) }

// Scheduler returns the job-labeled scheduler handle.
func (v JobView) Scheduler() *SchedulerObs { return v.o.scheduler(v.job) }

// jobLabels appends the ("job", name) pair when the handle is job-scoped.
func jobLabels(base []string, job string) []string {
	if job == "" {
		return base
	}
	return append(base, "job", job)
}

// WorkerObs instruments one worker's iteration lifecycle. Its phase-state
// fields are only touched from that worker's event loop (single-threaded in
// both stacks), while the shared histograms and counters are atomic. All
// methods are nil-safe.
type WorkerObs struct {
	o        *Obs
	index    int
	job      string
	node     string
	iters    *Counter
	aborts   *Counter
	degraded *Gauge
	isDeg    bool

	// Per-worker phase histograms (quantile-ready in /metrics, unlike the
	// straggler detector's EWMAs).
	pullPhH    *Histogram
	computePhH *Histogram
	pushPhH    *Histogram

	pulling      bool
	pullStart    time.Time
	pullIter     int64
	computing    bool
	computeStart time.Time
	pushing      bool
	pushStart    time.Time
	aborted      bool
	abortAt      time.Time
}

// Worker returns the handle for worker i. Handles share registry series, so
// a restarted worker incarnation keeps accumulating into the same metrics.
func (o *Obs) Worker(i int) *WorkerObs { return o.worker(i, "") }

func (o *Obs) worker(i int, job string) *WorkerObs {
	if o == nil {
		return nil
	}
	idx := strconv.Itoa(i)
	node := "worker/" + idx
	if job != "" {
		node = "job/" + job + "/" + node
	}
	phaseH := func(phase string) *Histogram {
		return o.reg.Histogram("specsync_worker_phase_seconds",
			"Per-worker pull/compute/push phase latency, for straggler quantiles.",
			LatencyBuckets, jobLabels([]string{"worker", idx, "phase", phase}, job)...)
	}
	return &WorkerObs{
		o:     o,
		index: i,
		job:   job,
		node:  node,
		iters: o.reg.Counter("specsync_worker_iterations_total",
			"Completed (fully acknowledged) iterations.", jobLabels([]string{"worker", idx}, job)...),
		aborts: o.reg.Counter("specsync_worker_aborts_total",
			"Speculative abort-and-restart events.", jobLabels([]string{"worker", idx}, job)...),
		degraded: o.reg.Gauge("specsync_degraded_workers",
			"Workers currently in broadcast-speculation failover (scheduler unreachable).",
			jobLabels(nil, job)...),
		pullPhH:    phaseH("pull"),
		computePhH: phaseH("compute"),
		pushPhH:    phaseH("push"),
	}
}

// Degraded publishes this worker's scheduler-failover state; the shared
// gauge counts workers currently running degraded and the transition lands
// in the flight recorder.
func (w *WorkerObs) Degraded(at time.Time, on bool) {
	if w == nil || w.isDeg == on {
		return
	}
	w.isDeg = on
	kind := "degraded-exit"
	if on {
		w.degraded.Add(1)
		kind = "degraded-enter"
	} else {
		w.degraded.Add(-1)
	}
	w.o.flight.Record(FlightEvent{At: at, Kind: kind, Node: w.node, Job: w.job})
}

// PullStart marks the fan-out of pull requests. Re-issues of an already
// in-flight pull round (retry timers) keep the original start time.
func (w *WorkerObs) PullStart(at time.Time, iter int64) {
	if w == nil {
		return
	}
	if w.pulling && w.pullIter == iter {
		return
	}
	w.pulling, w.pullStart, w.pullIter = true, at, iter
	w.computing, w.pushing = false, false
}

// PullDone marks the last shard response of a pull round and the start of
// computation. If the pull followed an abort, it closes the abort-to-restart
// latency window.
func (w *WorkerObs) PullDone(at time.Time, iter int64) {
	if w == nil || !w.pulling {
		return
	}
	w.pulling = false
	secs := at.Sub(w.pullStart).Seconds()
	w.o.pullH.Observe(secs)
	w.pullPhH.Observe(secs)
	w.o.stragglers.ObservePhase(w.job, w.index, PhasePull, at, secs)
	w.o.spans.Add(Span{Node: w.node, Name: "pull", Start: w.pullStart, End: at, Iter: iter})
	if w.aborted {
		w.aborted = false
		w.o.restartH.Observe(at.Sub(w.abortAt).Seconds())
	}
	w.computing, w.computeStart = true, at
}

// Abort marks an accepted re-sync: the in-flight computation (if any) is
// recorded as an aborted slice flow-linked to the scheduler's re-sync span.
func (w *WorkerObs) Abort(at time.Time, iter int64) {
	if w == nil {
		return
	}
	w.aborts.Inc()
	if w.computing {
		w.computing = false
		w.o.spans.Add(Span{
			Node: w.node, Name: "compute (aborted)",
			Start: w.computeStart, End: at, Iter: iter,
			Link: FlowID(w.index, iter),
		})
	}
	w.pulling, w.pushing = false, false
	w.aborted, w.abortAt = true, at
}

// ComputeDone marks the end of gradient computation and the start of a push.
func (w *WorkerObs) ComputeDone(at time.Time, iter int64) {
	if w == nil || !w.computing {
		return
	}
	w.computing = false
	secs := at.Sub(w.computeStart).Seconds()
	w.o.computeH.Observe(secs)
	w.computePhH.Observe(secs)
	w.o.stragglers.ObservePhase(w.job, w.index, PhaseCompute, at, secs)
	w.o.spans.Add(Span{Node: w.node, Name: "compute", Start: w.computeStart, End: at, Iter: iter})
	w.pushing, w.pushStart = true, at
}

// PushDone marks the last shard ack of a push; staleness is the mean
// server-measured staleness across shards.
func (w *WorkerObs) PushDone(at time.Time, iter int64, staleness int64) {
	if w == nil || !w.pushing {
		return
	}
	w.pushing = false
	w.iters.Inc()
	secs := at.Sub(w.pushStart).Seconds()
	w.o.pushH.Observe(secs)
	w.pushPhH.Observe(secs)
	w.o.stragglers.ObservePhase(w.job, w.index, PhasePush, at, secs)
	w.o.staleH.Observe(float64(staleness))
	w.o.spans.Add(Span{Node: w.node, Name: "push", Start: w.pushStart, End: at, Iter: iter, Value: staleness})
}

// SchedulerObs instruments the scheduler. All methods are nil-safe.
type SchedulerObs struct {
	o            *Obs
	job          string
	resyncs      *Counter
	epochs       *Counter
	evictions    *Counter
	readmissions *Counter
	restarts     *Counter
	stateReports *Counter
	specEnabled  *Gauge
	abortTime    *Gauge
	meanRate     *Gauge
	membership   *Gauge
	alive        *Gauge
	generation   *Gauge

	joins          *Counter
	leaves         *Counter
	migrations     *Counter
	migrationBytes *Counter
	migrationH     *Histogram
	clusterWorkers *Gauge
	clusterServers *Gauge

	schemeSwitches *Counter
}

// Scheduler returns the scheduler handle.
func (o *Obs) Scheduler() *SchedulerObs { return o.scheduler("") }

func (o *Obs) scheduler(job string) *SchedulerObs {
	if o == nil {
		return nil
	}
	lbl := jobLabels(nil, job)
	return &SchedulerObs{
		o:   o,
		job: job,
		resyncs: o.reg.Counter("specsync_resyncs_total",
			"Re-sync instructions issued by the scheduler.", lbl...),
		epochs: o.reg.Counter("specsync_epochs_total",
			"Scheduler epoch boundaries (every alive worker pushed).", lbl...),
		evictions: o.reg.Counter("specsync_evictions_total",
			"Workers evicted from membership by liveness timeout.", lbl...),
		readmissions: o.reg.Counter("specsync_readmissions_total",
			"Evicted workers re-admitted after reappearing.", lbl...),
		restarts: o.reg.Counter("specsync_scheduler_restarts_total",
			"Scheduler incarnations started after a crash.", lbl...),
		stateReports: o.reg.Counter("specsync_scheduler_state_reports_total",
			"Worker state reports consumed during post-restart state rebuild.", lbl...),
		specEnabled: o.reg.Gauge("specsync_spec_enabled",
			"1 when speculative synchronization is active, 0 when paused.", lbl...),
		abortTime: o.reg.Gauge("specsync_abort_time_seconds",
			"Current ABORT_TIME window length.", lbl...),
		meanRate: o.reg.Gauge("specsync_abort_rate_mean",
			"Mean per-worker ABORT_RATE threshold fraction.", lbl...),
		membership: o.reg.Gauge("specsync_membership_epoch",
			"Monotonic membership epoch (bumped by evictions and readmissions).", lbl...),
		alive: o.reg.Gauge("specsync_alive_workers",
			"Workers currently considered alive.", lbl...),
		generation: o.reg.Gauge("specsync_scheduler_generation",
			"Current scheduler incarnation (0 = original process).", lbl...),
		joins: o.reg.Counter("specsync_joins_total",
			"Workers admitted into a running cluster by the elastic protocol.", lbl...),
		leaves: o.reg.Counter("specsync_leaves_total",
			"Workers retired from a running cluster by a scale plan.", lbl...),
		migrations: o.reg.Counter("specsync_migrations_total",
			"Committed shard migrations (routing-epoch bumps).", lbl...),
		migrationBytes: o.reg.Counter("specsync_migration_bytes_total",
			"Parameter bytes moved between servers during shard migrations.", lbl...),
		migrationH: o.reg.Histogram("specsync_migration_seconds",
			"Duration of one shard migration (freeze to routing commit).", LatencyBuckets, lbl...),
		clusterWorkers: o.reg.Gauge("specsync_cluster_workers",
			"Workers currently in membership (elastic runs).", lbl...),
		clusterServers: o.reg.Gauge("specsync_cluster_servers",
			"Server shards currently in the routing table (elastic runs).", lbl...),
		schemeSwitches: o.reg.Counter("specsync_scheme_switches_total",
			"Live synchronization-scheme switches the scheduler made (gate policies moving the gate).", lbl...),
	}
}

// WorkerSpan feeds the scheduler's per-worker iteration-span estimate (its
// notify-interval EWMA) into the straggler detector, which re-scores the
// worker against the fleet median.
func (s *SchedulerObs) WorkerSpan(at time.Time, worker int, span time.Duration) {
	if s == nil {
		return
	}
	s.o.stragglers.ObserveSpan(s.job, worker, at, span.Seconds())
}

// StragglerCounts exposes the detector's current per-job flag counts and
// median/maximum slowdown scores — the meta-scheme policy's telemetry input.
func (s *SchedulerObs) StragglerCounts() (flagged, sustained int, median, max float64) {
	if s == nil {
		return 0, 0, 0, 0
	}
	return s.o.stragglers.Counts(s.job)
}

// StragglerFlag returns the detector's current score and level for one
// worker (ok=false when the worker has never been scored) — the mitigation
// loop's per-worker suspect signal.
func (s *SchedulerObs) StragglerFlag(worker int) (score float64, level StragglerLevel, ok bool) {
	if s == nil {
		return 0, StragglerOK, false
	}
	return s.o.stragglers.Flag(s.job, worker)
}

// MarkStraggler force-flags a worker at sustained level: the mitigation
// loop's escape hatch for overdue workers (a paused worker emits no spans,
// so the scoring path cannot see it).
func (s *SchedulerObs) MarkStraggler(at time.Time, worker int, score float64) {
	if s == nil {
		return
	}
	s.o.stragglers.MarkSustained(s.job, worker, at, score)
}

// SetStragglerTruth registers a straggler plan's injected worker set so the
// detector can score its flags (precision/recall on /stragglerz and in run
// results).
func (s *SchedulerObs) SetStragglerTruth(workers []int) {
	if s == nil {
		return
	}
	s.o.stragglers.SetTruth(s.job, workers)
}

// StragglersDetected returns the sorted worker indices ever held at
// sustained level — the detected set scored against a plan's ground truth.
func (s *SchedulerObs) StragglersDetected() []int {
	if s == nil {
		return nil
	}
	return s.o.stragglers.EverSustained(s.job)
}

// SchemeSwitch records a live synchronization-scheme switch.
func (s *SchedulerObs) SchemeSwitch(at time.Time, epoch int64, from, to, reason string) {
	if s == nil {
		return
	}
	s.schemeSwitches.Inc()
	s.o.spans.Add(Span{Node: "scheduler", Name: "scheme-switch", Start: at, Value: epoch})
	s.o.flight.Record(FlightEvent{At: at, Kind: "scheme-switch", Node: "scheduler", Job: s.job,
		Iter: epoch, Detail: from + " → " + to + " (" + reason + ")"})
}

// BarrierRelease records the gate releasing a new clock.
func (s *SchedulerObs) BarrierRelease(at time.Time, clock int64, workers int) {
	if s == nil {
		return
	}
	s.o.flight.Record(FlightEvent{
		At: at, Kind: "barrier-release", Node: "scheduler", Job: s.job,
		Iter: clock, Value: float64(workers),
	})
}

// Join records a worker admission and the resulting cluster size.
func (s *SchedulerObs) Join(at time.Time, worker int, membershipEpoch int64) {
	if s == nil {
		return
	}
	s.joins.Inc()
	s.membership.Set(float64(membershipEpoch))
	s.o.spans.Add(Span{Node: "scheduler", Name: "join", Start: at, Value: membershipEpoch})
	s.o.flight.Record(FlightEvent{At: at, Kind: "join", Node: "scheduler", Job: s.job,
		Iter: membershipEpoch, Value: float64(worker)})
}

// Leave records a planned worker retirement.
func (s *SchedulerObs) Leave(at time.Time, worker int, membershipEpoch int64) {
	if s == nil {
		return
	}
	s.leaves.Inc()
	s.membership.Set(float64(membershipEpoch))
	s.o.spans.Add(Span{Node: "scheduler", Name: "leave", Start: at, Value: membershipEpoch})
	s.o.flight.Record(FlightEvent{At: at, Kind: "leave", Node: "scheduler", Job: s.job,
		Iter: membershipEpoch, Value: float64(worker)})
}

// MigrationDone records a committed shard migration.
func (s *SchedulerObs) MigrationDone(at time.Time, epoch int64, bytes int64, dur time.Duration) {
	if s == nil {
		return
	}
	s.migrations.Inc()
	s.migrationBytes.Add(bytes)
	s.migrationH.Observe(dur.Seconds())
	s.o.spans.Add(Span{Node: "scheduler", Name: "migrate", Start: at.Add(-dur), End: at, Iter: epoch, Value: bytes})
	s.o.flight.Record(FlightEvent{At: at, Kind: "migration-commit", Node: "scheduler", Job: s.job,
		Iter: epoch, Value: float64(bytes)})
}

// ClusterSize publishes the current membership counts.
func (s *SchedulerObs) ClusterSize(workers, servers int) {
	if s == nil {
		return
	}
	s.clusterWorkers.Set(float64(workers))
	s.clusterServers.Set(float64(servers))
}

// Restarted records the start of a post-crash scheduler incarnation.
func (s *SchedulerObs) Restarted(at time.Time, gen int64) {
	if s == nil {
		return
	}
	s.restarts.Inc()
	s.generation.Set(float64(gen))
	s.o.spans.Add(Span{Node: "scheduler", Name: "restart", Start: at, Value: gen})
	s.o.flight.Record(FlightEvent{At: at, Kind: "scheduler-restart", Node: "scheduler", Job: s.job,
		Value: float64(gen)})
}

// StateReport records one worker state report applied to the rebuild.
func (s *SchedulerObs) StateReport() {
	if s == nil {
		return
	}
	s.stateReports.Inc()
}

// ReSync records one re-sync instruction as a flow-originating span.
func (s *SchedulerObs) ReSync(at time.Time, worker int, iter int64, count int) {
	if s == nil {
		return
	}
	s.resyncs.Inc()
	s.o.spans.Add(Span{
		Node: "scheduler", Name: "resync", Start: at,
		Iter: iter, Value: int64(count),
		Link: FlowID(worker, iter), LinkStart: true,
	})
}

// Epoch records an epoch boundary.
func (s *SchedulerObs) Epoch(at time.Time, epoch int64) {
	if s == nil {
		return
	}
	s.epochs.Inc()
	s.o.spans.Add(Span{Node: "scheduler", Name: "epoch", Start: at, Iter: epoch})
}

// Tune publishes the current speculation hyperparameters.
func (s *SchedulerObs) Tune(enabled bool, abortTime time.Duration, meanRate float64) {
	if s == nil {
		return
	}
	if enabled {
		s.specEnabled.Set(1)
	} else {
		s.specEnabled.Set(0)
	}
	s.abortTime.Set(abortTime.Seconds())
	s.meanRate.Set(meanRate)
}

// Evict records a membership eviction.
func (s *SchedulerObs) Evict(at time.Time, worker int, membershipEpoch int64) {
	if s == nil {
		return
	}
	s.evictions.Inc()
	s.membership.Set(float64(membershipEpoch))
	s.o.spans.Add(Span{Node: "scheduler", Name: "evict", Start: at, Value: membershipEpoch})
	s.o.flight.Record(FlightEvent{At: at, Kind: "evict", Node: "scheduler", Job: s.job,
		Iter: membershipEpoch, Value: float64(worker)})
}

// Readmit records an evicted worker rejoining.
func (s *SchedulerObs) Readmit(at time.Time, worker int, membershipEpoch int64) {
	if s == nil {
		return
	}
	s.readmissions.Inc()
	s.membership.Set(float64(membershipEpoch))
	s.o.spans.Add(Span{Node: "scheduler", Name: "readmit", Start: at, Value: membershipEpoch})
	s.o.flight.Record(FlightEvent{At: at, Kind: "readmit", Node: "scheduler", Job: s.job,
		Iter: membershipEpoch, Value: float64(worker)})
}

// AliveWorkers publishes the current alive-worker count.
func (s *SchedulerObs) AliveWorkers(n int) {
	if s == nil {
		return
	}
	s.alive.Set(float64(n))
}

// ClusterSource registers the function that builds this scheduler's cluster
// view; /clusterz and JobClusterSnapshot call it at request time, from the
// reader's goroutine. A later incarnation's registration replaces an earlier
// one's. The fleet-level view is composed by the job manager, not by any one
// tenant.
func (s *SchedulerObs) ClusterSource(src func() (ClusterSnapshot, bool)) {
	if s == nil {
		return
	}
	s.o.clusterSrc.Store(s.job, src)
}

// ServerObs instruments one parameter-server shard. Nil-safe.
type ServerObs struct {
	pulls   *Counter
	pushes  *Counter
	version *Gauge
	stale   *Histogram
}

// Server returns the handle for one shard.
func (o *Obs) Server(shard int) *ServerObs { return o.server(shard, "") }

func (o *Obs) server(shard int, job string) *ServerObs {
	if o == nil {
		return nil
	}
	idx := strconv.Itoa(shard)
	return &ServerObs{
		pulls: o.reg.Counter("specsync_server_pulls_total",
			"Parameter pull requests served.", jobLabels([]string{"shard", idx}, job)...),
		pushes: o.reg.Counter("specsync_server_pushes_total",
			"Gradient pushes applied.", jobLabels([]string{"shard", idx}, job)...),
		version: o.reg.Gauge("specsync_server_version",
			"Shard parameter version (applied updates).", jobLabels([]string{"shard", idx}, job)...),
		stale: o.reg.Histogram("specsync_server_push_staleness",
			"Per-shard staleness of each applied push.", StalenessBuckets,
			jobLabels([]string{"shard", idx}, job)...),
	}
}

// Pull records one served pull request.
func (s *ServerObs) Pull() {
	if s == nil {
		return
	}
	s.pulls.Inc()
}

// Version records the shard's parameter version without counting a served
// push — the backup-replica replay path, which applies forwarded updates
// that the primary already counted.
func (s *ServerObs) Version(version int64) {
	if s == nil {
		return
	}
	s.version.Set(float64(version))
}

// Push records one applied push with the shard's new version and the
// measured staleness of the update.
func (s *ServerObs) Push(version, staleness int64) {
	if s == nil {
		return
	}
	s.pushes.Inc()
	s.version.Set(float64(version))
	s.stale.Observe(float64(staleness))
}

// Summary is the condensed end-of-run view attached to cluster.Result.
type Summary struct {
	Pull      HistSnapshot
	Compute   HistSnapshot
	Push      HistSnapshot
	Restart   HistSnapshot // abort-to-restart latency
	Staleness HistSnapshot

	Iterations        int64
	Aborts            int64
	ReSyncs           int64
	Epochs            int64
	Evictions         int64
	Readmissions      int64
	SchedulerRestarts int64
	StateReports      int64
	Joins             int64
	Leaves            int64
	Migrations        int64
	MigrationBytes    int64
	ServerPushes      int64
	Spans             int

	// StragglerFlags counts ok→flagged transitions across all workers;
	// FlightEvents is the total recorded by the flight recorder (including
	// events the ring has since dropped).
	StragglerFlags int64
	FlightEvents   uint64
	// SchemeSwitches counts live gate moves by a gate policy.
	SchemeSwitches int64
}

// Summary snapshots the registry into a Summary (nil on a nil Obs).
func (o *Obs) Summary() *Summary {
	if o == nil {
		return nil
	}
	return &Summary{
		Pull:              o.pullH.Snapshot(),
		Compute:           o.computeH.Snapshot(),
		Push:              o.pushH.Snapshot(),
		Restart:           o.restartH.Snapshot(),
		Staleness:         o.staleH.Snapshot(),
		Iterations:        o.reg.SumCounters("specsync_worker_iterations_total"),
		Aborts:            o.reg.SumCounters("specsync_worker_aborts_total"),
		ReSyncs:           o.reg.SumCounters("specsync_resyncs_total"),
		Epochs:            o.reg.SumCounters("specsync_epochs_total"),
		Evictions:         o.reg.SumCounters("specsync_evictions_total"),
		Readmissions:      o.reg.SumCounters("specsync_readmissions_total"),
		SchedulerRestarts: o.reg.SumCounters("specsync_scheduler_restarts_total"),
		StateReports:      o.reg.SumCounters("specsync_scheduler_state_reports_total"),
		Joins:             o.reg.SumCounters("specsync_joins_total"),
		Leaves:            o.reg.SumCounters("specsync_leaves_total"),
		Migrations:        o.reg.SumCounters("specsync_migrations_total"),
		MigrationBytes:    o.reg.SumCounters("specsync_migration_bytes_total"),
		ServerPushes:      o.reg.SumCounters("specsync_server_pushes_total"),
		Spans:             o.spans.Len(),
		StragglerFlags:    o.reg.SumCounters("specsync_straggler_flags_total"),
		FlightEvents:      o.flight.Recorded(),
		SchemeSwitches:    o.reg.SumCounters("specsync_scheme_switches_total"),
	}
}
