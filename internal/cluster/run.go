package cluster

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/faults"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/trace"
	"specsync/internal/worker"
)

// Config describes one simulated training run. Its JSON form is the run
// spec every binary loads (DecodeSpec); fields no spec sets are tagged "-".
// Validate is the one place a cross-subsystem exclusion lives.
type Config struct {
	// Workload is the model + training profile (build with NewMF etc.; a
	// spec names it and may override a few fields).
	Workload Workload `json:"workload"`
	// Scheme is the synchronization scheme under test.
	Scheme scheme.Config `json:"scheme"`
	// Workers is the cluster size m.
	Workers int `json:"workers"`
	// Servers is the number of parameter shards; zero means min(Workers, 8).
	Servers int `json:"servers,omitempty"`
	// Seed drives all randomness (data order, jitter, init).
	Seed int64 `json:"seed"`
	// Codec selects the gradient/parameter compression codecs
	// (internal/codec). The zero value is raw: the legacy v1 wire layouts,
	// byte-identical to a run without the codec layer. Because the
	// simulator derives transfer times from encoded byte counts, a
	// compressing codec shifts push timing and speculation dynamics, not
	// just byte totals.
	Codec codec.Config `json:"codec"`
	// Net is the simulated network; zero value means the EC2-like default
	// (250 us latency, 1 Gbps links, 100 us jitter, and transient
	// cluster-wide stalls scaled to the workload's iteration time).
	Net des.NetModel `json:"-"`
	// DisableHiccups removes the transient-stall process from the default
	// network model (ablation; ignored when Net is set explicitly).
	DisableHiccups bool `json:"disable_hiccups,omitempty"`
	// Speeds are per-worker compute speed factors; nil means homogeneous.
	Speeds []float64 `json:"-"`
	// Hetero, when Speeds is nil, uses the heterogeneous instance mix of
	// paper Cluster 2 (InstanceSpeeds).
	Hetero bool `json:"hetero,omitempty"`
	// MaxVirtual bounds the simulated duration. Required.
	MaxVirtual time.Duration `json:"max_virtual"`
	// ConsecutiveBelow is the convergence streak length; zero means the
	// paper's 5.
	ConsecutiveBelow int `json:"-"`
	// KeepTrace retains the full event trace in the result.
	KeepTrace bool `json:"-"`
	// MaxItersPerWorker stops each worker after completing this many
	// iterations; zero means run until convergence or MaxVirtual. A fixed
	// per-worker budget makes two runs end after the identical applied
	// update sequence, which is what the zero-loss digest comparison needs.
	MaxItersPerWorker int64 `json:"max_iters_per_worker,omitempty"`
	// Debug, if non-nil, receives node logs.
	Debug io.Writer `json:"-"`
	// OnTune forwards scheduler tuning decisions.
	OnTune func(epoch int, t core.Tuning) `json:"-"`
	// Faults, if non-nil, injects the plan's crashes, partitions, and
	// message faults into the run. Restarted workers come back with blank
	// training state; restarted shards restore the latest checkpoint.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Churn, if non-nil, generates Faults at run start (faults.Generate,
	// seeded by Seed, over the run's worker and server counts, with a
	// quarter of the crashes on server shards). Mutually exclusive with
	// Faults.
	Churn *faults.ChurnConfig `json:"churn,omitempty"`
	// CheckpointEvery is the server snapshot period when Faults is set
	// (zero means 4x the workload iteration time).
	CheckpointEvery time.Duration `json:"checkpoint_every,omitempty"`
	// LivenessTimeout overrides the scheduler's failure-detector timeout.
	// Zero means 4x IterTime when Faults is set, detector off otherwise.
	LivenessTimeout time.Duration `json:"liveness_timeout,omitempty"`
	// HeartbeatEvery overrides the worker heartbeat period. Zero means
	// IterTime/2 when Faults is set, heartbeats off otherwise.
	HeartbeatEvery time.Duration `json:"heartbeat_every,omitempty"`
	// RetryAfter overrides the worker pull/push retry timeout (requests
	// lost to a crashed shard are re-issued after this long). Zero means
	// 2x IterTime when Faults is set, retries off otherwise.
	RetryAfter time.Duration `json:"retry_after,omitempty"`
	// BeaconEvery overrides the period of the scheduler's SchedulerBeacon,
	// which carries its generation to every worker: a worker that missed a
	// new incarnation's Hello or LeaderAnnounce, such as one restarted after
	// a standby election, finds the serving scheduler through it. Zero means
	// IterTime when the fault plan crashes the scheduler or the run has
	// standby schedulers, beacons off otherwise.
	BeaconEvery time.Duration `json:"beacon_every,omitempty"`
	// Obs, if non-nil, receives runtime telemetry (latency histograms, span
	// traces, the /clusterz snapshot). Nil builds an internal registry-only
	// instance so Result.Obs is always populated; pass obs.New with
	// Options{Spans: true} to also retain span traces for export.
	Obs *obs.Obs `json:"-"`
	// Replication configures the replicated control and data planes. The
	// zero value disables both. It requires any fault plan to be crash-only
	// (a dropped replication message would silently stall a backup; see
	// DESIGN.md, Replication).
	Replication Replication `json:"replication"`
	// Slowdowns scripts transient per-worker compute slowdowns: entry i
	// applies to worker i, zero-Factor entries are ignored. A scripted
	// window draws no randomness, so an empty list leaves runs
	// byte-identical; the gate-policy tests use one to stage a sustained
	// straggler that later recovers.
	Slowdowns []worker.Slowdown `json:"-"`
	// Stragglers, if non-nil and non-empty, injects the straggler-scenario
	// plan (internal/stragglers): pause/degrade/rack episodes compile into
	// per-worker speed scripts, congest episodes into a deterministic
	// link-penalty hook, and the detector is scored against the plan's
	// ground truth in Result.Stragglers. An empty plan behaves exactly like
	// nil. Mutually exclusive with Faults (restarts re-anchor the profile's
	// speed windows).
	Stragglers *stragglers.Plan `json:"stragglers,omitempty"`
	// Mitigation selects the scheduler's response to detected stragglers
	// (requires Stragglers): MitigateNone observes and scores only,
	// MitigateClone races flagged workers against backup clones on spare
	// slots, MitigateRebalance swaps them out for replacements that join the
	// running cluster (the scheduler's join / retire path).
	Mitigation stragglers.Mitigation `json:"mitigation,omitempty"`
	// Spares is the number of spare worker slots reserved for mitigation;
	// zero means 2 when a mitigation mode is set.
	Spares int `json:"spares,omitempty"`
	// SpareSpeed is the compute speed factor of spawned spare workers
	// (clones and rebalance replacements); zero means 1 (a healthy host).
	// The clone-safety tests set it well below the degraded original's
	// speed so every race resolves the same way.
	SpareSpeed float64 `json:"-"`
}

// Replication configures scheduler standbys and parameter-shard backups.
type Replication struct {
	// Replicas is the number of backup replicas per parameter shard (R).
	// Each primary forwards every applied push, version-stamped, to its R
	// backups in the same step that acknowledges it, so a crash-server
	// event promotes a backup with zero lost pushes instead of rolling the
	// shard back to a checkpoint.
	Replicas int `json:"replicas,omitempty"`
	// StandbySchedulers is the number of standby scheduler incarnations
	// (S). The serving leader ships its durable snapshot to all S standbys
	// every ReplicateEvery; a crash-scheduler event then ends in a
	// term-based election among the standbys, with workers redirected by
	// LeaderAnnounce.
	StandbySchedulers int `json:"standby_schedulers,omitempty"`
	// ReplicateEvery is the leader's snapshot-shipping period, which
	// doubles as its liveness heartbeat. Zero means IterTime/2.
	ReplicateEvery time.Duration `json:"replicate_every,omitempty"`
	// ElectionTimeout is the standbys' election-timeout base (each standby
	// randomizes into [T, 2T)). Zero means IterTime, so a successor serves
	// within two iterations of the leader's last snapshot.
	ElectionTimeout time.Duration `json:"election_timeout,omitempty"`
}

// Enabled reports whether any replication is configured.
func (r Replication) Enabled() bool { return r.Replicas > 0 || r.StandbySchedulers > 0 }

// ReplicationStats summarizes the replicated planes after a run.
type ReplicationStats struct {
	// Replicas / StandbySchedulers echo the configuration.
	Replicas, StandbySchedulers int
	// Elections is the number of standby elections won; FinalTerm the
	// highest term reached (0 = the bootstrap leader never died).
	Elections, FinalTerm int64
	// LeaderNode is the node serving as scheduler at the end of the run.
	LeaderNode string
	// Promotions is the number of backup shards promoted to primary.
	Promotions int64
	// Forwarded / Applied / Deduped count replicated pushes: primary
	// forwards, backup applies, and duplicate pushes absorbed by the
	// replicated-path dedup.
	Forwarded, Applied, Deduped int64
	// SnapshotsShipped counts scheduler snapshot replication ticks.
	SnapshotsShipped int64
}

// servers is the shard count with its default applied.
func (c Config) servers() int {
	if c.Servers > 0 {
		return c.Servers
	}
	return min(c.Workers, 8)
}

// reportSpans reports whether the run's workers send NotifyV2 work spans:
// a gate policy or a straggler plan reads them, and every process of a live
// cluster must agree or the scheduler would starve.
func (c Config) reportSpans() bool {
	return c.Scheme.Policy != scheme.PolicyNone || !c.Stragglers.Empty()
}

// WithDefaults returns c with the zero fields Build derives from the rest of
// the config filled in (shard count, speeds, timeouts, replication periods,
// network model), so a spec means one thing on every runtime.
func (c Config) WithDefaults() Config {
	c.applyDefaults()
	return c
}

func (c *Config) applyDefaults() {
	c.Servers = c.servers()
	if c.Hetero && c.Speeds == nil {
		c.Speeds = InstanceSpeeds(c.Workers)
	}
	if c.ConsecutiveBelow == 0 {
		c.ConsecutiveBelow = 5
	}
	if c.Mitigation != stragglers.MitigateNone {
		if c.Spares == 0 {
			c.Spares = 2
		}
		if c.SpareSpeed == 0 {
			c.SpareSpeed = 1
		}
		if c.RetryAfter == 0 {
			// Clone pushes racing their CloneNotice are dropped, and a
			// rebalance joiner's JoinReq may be lost; both resolve via retry.
			c.RetryAfter = 2 * c.Workload.IterTime
		}
	}
	if c.Faults != nil {
		it := c.Workload.IterTime
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 4 * it
		}
		if c.LivenessTimeout == 0 {
			c.LivenessTimeout = 4 * it
		}
		if c.HeartbeatEvery == 0 {
			c.HeartbeatEvery = it / 2
		}
		if c.RetryAfter == 0 {
			c.RetryAfter = 2 * it
		}
		if c.Faults.HasSchedulerCrash() && c.BeaconEvery == 0 {
			c.BeaconEvery = it
		}
	}
	if c.Replication.Enabled() {
		it := c.Workload.IterTime
		if c.Replication.ReplicateEvery == 0 {
			// Well under the election timeout so a healthy leader never
			// looks silent.
			c.Replication.ReplicateEvery = it / 2
		}
		if c.Replication.ElectionTimeout == 0 {
			// Fires within 2x IterTime (randomized to [T, 2T)).
			c.Replication.ElectionTimeout = it
		}
		if c.Replication.StandbySchedulers > 0 && c.BeaconEvery == 0 {
			c.BeaconEvery = it
		}
	}
	zero := des.NetModel{}
	if c.Net == zero {
		c.Net = des.NetModel{
			Latency:     250 * time.Microsecond,
			BytesPerSec: 125e6, // ~1 Gbps
			Jitter:      100 * time.Microsecond,
		}
		if !c.DisableHiccups {
			// EC2-like transient stalls: roughly one per four iterations,
			// lasting up to an iteration, so pushes queue and then land in
			// bursts (the arrival pattern SpecSync exploits).
			it := c.Workload.IterTime
			c.Net.Hiccups = des.Hiccups{
				MeanEvery: 4 * it,
				MinDur:    it / 2,
				MaxDur:    it * 5 / 4,
			}
		}
	}
}

// Result summarizes one run.
type Result struct {
	// SchemeName is the human-readable scheme label.
	SchemeName string
	// Loss is the eval-loss time series.
	Loss metrics.Series
	// IterSeries records total completed iterations at each probe time.
	IterSeries metrics.Series
	// TransferSeries records accumulated wire bytes at each probe time.
	TransferSeries metrics.Series
	// Converged reports whether the target was reached within MaxVirtual.
	Converged bool
	// ConvergeTime is the virtual time of convergence (start of the
	// qualifying streak).
	ConvergeTime time.Duration
	// ItersAtConverge is the cluster-wide iteration count at convergence.
	ItersAtConverge int64
	// TotalIters is the cluster-wide iteration count at the end of the run.
	TotalIters int64
	// Aborts is the number of abort-and-restart events.
	Aborts int64
	// ReSyncs is the number of re-sync instructions the scheduler issued.
	ReSyncs int64
	// Epochs is the number of completed epochs.
	Epochs int
	// Elapsed is the total simulated duration.
	Elapsed time.Duration
	// Transfer is the per-kind byte accounting.
	Transfer *metrics.Transfer
	// Codec is the codec-layer accounting: bytes on wire per {kind, codec}
	// and encode-side compression ratios.
	Codec *codec.Stats
	// Trace is the full event log (nil unless Config.KeepTrace).
	Trace *trace.Collector
	// FinalLoss is the last probed loss.
	FinalLoss float64
	// Faults is the fault, recovery and failover ledger read off the
	// registry (crashes, restarts, checkpoints, drops, evictions, elections,
	// promotions). Nil unless Config.Faults or Config.Replication was set.
	Faults *obs.FaultTotals
	// Scale counts membership changes (joins and leaves). Nil unless
	// Config.Mitigation is rebalance.
	Scale *core.ScaleStats
	// Obs is the condensed observability summary: pull/compute/push and
	// abort-to-restart latency histograms, staleness distribution, and the
	// counter totals.
	Obs *obs.Summary
	// Flight is the flight-recorder dump: the last control-plane decisions
	// (barrier releases, faults, straggler flags) with virtual
	// timestamps.
	Flight obs.FlightDump
	// Replication is the replicated-plane accounting (elections, terms,
	// promotions, forwarded/applied pushes). Nil unless Config.Replication
	// was enabled.
	Replication *ReplicationStats
	// SchemeSwitches counts the SchemeSwitch retargets the scheduler issued
	// (always 0 without a gate policy), and FinalScheme names the gate the
	// fleet ended the run under.
	SchemeSwitches int64
	FinalScheme    string
	// ParamsDigest is the hex SHA-256 over the final assembled parameter
	// vector. Byte-identical runs produce identical digests, which is how
	// the zero-loss failover claim is checked: a replicated crash run must
	// end at exactly the fault-free digest.
	ParamsDigest string
	// Stragglers is the straggler-run accounting: detector precision/recall
	// against the plan's injected worker set, mitigation actions, and the
	// server-side clone-dedup counters. Nil unless Config.Stragglers was
	// set.
	Stragglers *StragglerStats
}

// StragglerStats summarizes a straggler-profile run.
type StragglerStats struct {
	// Score compares the detector's ever-sustained flags against the
	// plan's injected worker set.
	Score stragglers.Score
	// Mitigation counts clone starts/stops and rebalances.
	Mitigation core.MitigationStats
	// CloneDeduped is the number of duplicate (worker, iter) pushes the
	// servers acknowledged without applying; CloneDropped counts unaliased
	// spare-slot pushes dropped while a CloneNotice was in flight.
	CloneDeduped, CloneDropped int64
}

// Validate reports configuration errors, every combination of subsystems a
// run does not support among them: it is the one place such an exclusion
// lives. Run calls it before it builds anything. An empty straggler plan
// counts as absent.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Scheme.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("cluster: need at least 1 worker")
	}
	mdl := c.Workload.Model
	if mdl.NumShards() < c.Workers {
		return fmt.Errorf("cluster: workload has %d data shards for %d workers", mdl.NumShards(), c.Workers)
	}
	if c.MaxVirtual <= 0 {
		return fmt.Errorf("cluster: MaxVirtual must be positive")
	}
	if c.Speeds != nil && len(c.Speeds) != c.Workers {
		return fmt.Errorf("cluster: %d speeds for %d workers", len(c.Speeds), c.Workers)
	}
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	if c.Replication.Replicas < 0 || c.Replication.StandbySchedulers < 0 {
		return fmt.Errorf("cluster: negative replication counts")
	}
	if err := c.Mitigation.Validate(); err != nil {
		return err
	}
	for i, sd := range c.Slowdowns {
		if sd.Factor == 0 && sd.From == 0 && sd.Until == 0 {
			continue // unscripted slot
		}
		if err := sd.Validate(); err != nil {
			return fmt.Errorf("cluster: slowdown for worker %d: %w", i, err)
		}
	}
	if len(c.Slowdowns) > c.Workers {
		return fmt.Errorf("cluster: %d slowdown entries for %d workers", len(c.Slowdowns), c.Workers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	straggling := !c.Stragglers.Empty()
	if straggling {
		if err := c.Stragglers.Validate(); err != nil {
			return err
		}
		if mw := c.Stragglers.MaxWorker(); mw >= c.Workers {
			return fmt.Errorf("cluster: straggler plan targets worker %d but the cluster has %d", mw, c.Workers)
		}
	}

	faulty := c.Faults != nil || c.Churn != nil
	mitigating := c.Mitigation != stragglers.MitigateNone
	switch {
	case c.Faults != nil && c.Churn != nil:
		return fmt.Errorf("cluster: Faults cannot be combined with Churn (churn generates the fault plan)")
	case c.Replication.Enabled() && c.Faults != nil && !c.Faults.CrashOnly():
		return fmt.Errorf("cluster: Replication requires a crash-only fault plan (a dropped or partitioned replication message would silently stall a backup; see DESIGN.md, Replication)")
	case straggling && faulty:
		return fmt.Errorf("cluster: Stragglers cannot be combined with Faults (restarts re-anchor the profile's speed windows mid-run)")
	case mitigating && !straggling:
		return fmt.Errorf("cluster: mitigation %q without a straggler plan", c.Mitigation)
	case mitigating && c.Scheme.Policy == scheme.PolicyMeta:
		return fmt.Errorf("cluster: straggler mitigation cannot be combined with the meta-scheme policy (both act on the same detector)")
	case mitigating && c.Replication.Enabled():
		return fmt.Errorf("cluster: straggler mitigation cannot be combined with Replication (clone dedup and the replicated-path dedup would fight over push watermarks)")
	}

	dim, servers := mdl.Dim(), c.servers()
	if dim < servers {
		return fmt.Errorf("cluster: model dim %d is smaller than %d server shards; every shard needs at least one parameter (use fewer servers or a larger model)", dim, servers)
	}
	return nil
}

// ValidateTCP is Validate for the live TCP runtime (specsync-node and
// RunLoopback). It also refuses what only the simulator models — fault and
// churn plans and straggler mitigation — and returns a warning
// for what TCP runs but ignores: a straggler plan's congest episodes, since
// the TCP transport has no bandwidth model to scale.
func (c Config) ValidateTCP() (warning string, err error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	switch {
	case c.Faults != nil || c.Churn != nil:
		return "", fmt.Errorf("cluster: fault and churn plans run only on the simulator")
	case c.Mitigation != stragglers.MitigateNone:
		return "", fmt.Errorf("cluster: straggler mitigation runs only on the simulator")
	}
	if c.Stragglers.HasCongest() {
		return "warning: congest episodes in the plan are ignored on the TCP transport", nil
	}
	return "", nil
}

// Run executes one simulated training job to convergence (or MaxVirtual):
// the spec's node set on the discrete-event simulator.
func Run(cfg Config) (*Result, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	cfg = n.cfg
	sim, err := des.New(des.Config{
		Seed:     cfg.Seed,
		Net:      cfg.Net,
		Registry: msg.Registry(),
		Transfer: n.codec.Tap(n.transfer),
		Metrics:  n.obs.Registry(),
		Debug:    cfg.Debug,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Stragglers != nil {
		if err := stragglers.AttachSim(sim, cfg.Stragglers); err != nil {
			return nil, err
		}
	}
	n.join = sim.Join
	for _, id := range n.IDs() {
		h, err := n.Handler(id)
		if err != nil {
			return nil, err
		}
		if err := sim.AddNode(id, h); err != nil {
			return nil, err
		}
	}

	var inj *faults.SimInjector
	if cfg.Faults != nil {
		inj, err = faults.AttachSim(sim, faults.SimOptions{
			Plan:            cfg.Faults,
			NumWorkers:      cfg.Workers,
			NumServers:      cfg.Servers,
			Tracer:          n.tracer,
			Faults:          n.faults,
			CheckpointEvery: cfg.CheckpointEvery,
			NewWorker:       func(i int) (node.Handler, error) { return n.newWorker(i, false, -1) },
			NewServer:       func(shard int) (*ps.Server, error) { return n.newShard(shard, false) },
			NewScheduler:    n.newScheduler,
			Server:          func(shard int) *ps.Server { return n.servers[shard] },
			Scheduler:       func() *core.Scheduler { return n.sched },
			Replicas:        cfg.Replication.Replicas,
			Standbys:        cfg.Replication.StandbySchedulers,
			ReplicaServer: func(shard, r int) *ps.Server {
				if r < 1 || r > cfg.Replication.Replicas {
					return nil
				}
				return n.replicas[shard][r-1]
			},
			OnPromote: func(shard int, srv *ps.Server) {
				n.obs.RecordFlight(obs.FlightEvent{
					At:     sim.Now(),
					Kind:   "replica-promote",
					Node:   string(node.ServerID(shard)),
					Value:  float64(srv.Version()),
					Detail: "backup promoted to shard primary",
				})
			},
			OnWorkerRestart:    n.retireWorker,
			OnServerRestart:    func(shard int, srv *ps.Server) { n.servers[shard] = srv },
			OnSchedulerRestart: n.retireScheduler,
		})
		if err != nil {
			return nil, err
		}
	}

	sim.Init()
	res := &Result{}
	c := &curve{n: n, res: res}
	var probe func()
	probe = func() {
		if c.observe(sim.Elapsed(), n.assemble()) {
			sim.Stop()
			return
		}
		sim.Schedule(cfg.Workload.EvalEvery, probe)
	}
	sim.Schedule(cfg.Workload.EvalEvery, probe)
	sim.RunUntilIdle(cfg.MaxVirtual)

	if inj != nil {
		if errs := inj.Errs(); len(errs) > 0 {
			return nil, fmt.Errorf("cluster: fault injector: %v", errs[0])
		}
	}
	res.Elapsed = sim.Elapsed()
	n.result(res)
	return res, nil
}
