package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/elastic"
	"specsync/internal/faults"
	"specsync/internal/metrics"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/replica"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/switcher"
	"specsync/internal/tensor"
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
	// RunPastConverge keeps simulating this long after convergence is
	// detected (to extend learning curves); zero stops immediately.
	RunPastConverge time.Duration `json:"-"`
	// KeepTrace retains the full event trace in the result.
	KeepTrace bool `json:"-"`
	// AbortLateFrac overrides the workers' too-late-to-abort threshold
	// (zero keeps the worker default of 0.9; 1 disables the cutoff).
	AbortLateFrac float64 `json:"-"`
	// MaxAbortFrac caps the adaptive speculation window as a fraction of
	// the iteration time (zero means the default 0.125; the paper grid
	// upper bound).
	MaxAbortFrac float64 `json:"-"`
	// RateMargin forwards core.SchedulerConfig.RateMargin (zero = default).
	RateMargin float64 `json:"-"`
	// CheckAtExpiryOnly forwards the paper-literal expiry-check mode.
	CheckAtExpiryOnly bool `json:"-"`
	// RecordAccuracy also samples classification accuracy at each probe.
	RecordAccuracy bool `json:"-"`
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
	// Scale, if non-nil and non-empty, schedules elastic membership events:
	// workers join and leave the running cluster, and parameter shards
	// migrate live across a changing server set (internal/elastic). An empty
	// plan behaves exactly like nil — the run stays on the legacy fixed-shard
	// path, byte for byte. Mutually exclusive with Faults (restarts rebuild
	// nodes at the static initial shape, which a migration invalidates; see
	// DESIGN.md, Elasticity).
	Scale *elastic.Plan `json:"scale,omitempty"`
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
	// SchedulerTimeout overrides the workers' scheduler failure-detector
	// timeout (silence longer than this flips a worker into degraded mode).
	// Zero means 4x IterTime when the fault plan crashes the scheduler,
	// detector off otherwise — so plans that never touch the scheduler keep
	// their exact event schedules.
	SchedulerTimeout time.Duration `json:"scheduler_timeout,omitempty"`
	// BeaconEvery overrides the scheduler's liveness beacon period. Zero
	// means IterTime when the fault plan crashes the scheduler, beacons off
	// otherwise.
	BeaconEvery time.Duration `json:"beacon_every,omitempty"`
	// Obs, if non-nil, receives runtime telemetry (latency histograms, span
	// traces, the /clusterz snapshot). Nil builds an internal registry-only
	// instance so Result.Obs is always populated; pass obs.New with
	// Options{Spans: true} to also retain span traces for export.
	Obs *obs.Obs `json:"-"`
	// Replication configures the replicated control and data planes. The
	// zero value disables both. Mutually exclusive with Scale (promotion
	// and election rebuild nodes at the static initial shape), and requires
	// any fault plan to be crash-only (a dropped replication message would
	// silently stall a backup; see DESIGN.md, Replication).
	Replication Replication `json:"replication"`
	// Switcher, if non-nil, enables the meta-scheme: the scheduler consumes
	// straggler telemetry at every epoch boundary and live-switches the
	// whole fleet between BSP (homogeneous) and SSP (sustained straggler),
	// with hysteresis. Requires a plain centralized scheme without
	// speculation (Base set, Variant none, Decentralized false, SpecOff).
	// A spec enables it with the policy defaults: "meta_scheme": {}.
	Switcher *switcher.Config `json:"meta_scheme,omitempty"`
	// Slowdowns scripts transient per-worker compute slowdowns: entry i
	// applies to worker i, zero-Factor entries are ignored. A scripted
	// window draws no randomness, so an empty list leaves runs
	// byte-identical; the scheme-switching tests use one to stage a
	// sustained straggler that later recovers.
	Slowdowns []worker.Slowdown `json:"-"`
	// Stragglers, if non-nil and non-empty, injects the straggler-scenario
	// plan (internal/stragglers): pause/degrade/rack episodes compile into
	// per-worker speed scripts, congest episodes into a deterministic
	// link-penalty hook, and the detector is scored against the plan's
	// ground truth in Result.Stragglers. An empty plan behaves exactly like
	// nil. Mutually exclusive with Faults and Scale (both rebuild or resize
	// the worker set the profile indexes into).
	Stragglers *stragglers.Plan `json:"stragglers,omitempty"`
	// Mitigation selects the scheduler's response to detected stragglers
	// (requires Stragglers): MitigateNone observes and scores only,
	// MitigateClone races flagged workers against backup clones on spare
	// slots, MitigateRebalance swaps them out through the elastic join /
	// retire machinery.
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
	// term-based election among the standbys instead of degraded broadcast
	// mode, with workers redirected by LeaderAnnounce.
	StandbySchedulers int `json:"standby_schedulers,omitempty"`
	// ReplicateEvery is the leader's snapshot-shipping period, which
	// doubles as its liveness heartbeat. Zero means IterTime/2.
	ReplicateEvery time.Duration `json:"replicate_every,omitempty"`
	// ElectionTimeout is the standbys' election-timeout base (each standby
	// randomizes into [T, 2T)). Zero means IterTime — short enough that a
	// successor is elected before any worker's own SchedulerTimeout (4x
	// IterTime) trips it into degraded mode.
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

// WithDefaults returns c with the zero fields Run derives from the rest of
// the config filled in (shard count, speeds, timeouts, replication periods,
// network model). The live node applies the same defaults, so a spec means
// one thing on both runtimes.
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
	if c.Scale != nil && c.RetryAfter == 0 {
		// Requests racing a frozen (migrating) shard are dropped; without
		// retries the worker would wait on the lost response forever.
		c.RetryAfter = 2 * c.Workload.IterTime
	}
	if c.Mitigation != stragglers.MitigateNone {
		if c.Spares == 0 {
			c.Spares = 2
		}
		if c.SpareSpeed == 0 {
			c.SpareSpeed = 1
		}
		if c.RetryAfter == 0 {
			// Clone pushes racing their CloneNotice are dropped, and rebalance
			// joiners race frozen routing state; both resolve via retry.
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
		if c.Faults.HasSchedulerCrash() {
			if c.SchedulerTimeout == 0 {
				c.SchedulerTimeout = 4 * it
			}
			if c.BeaconEvery == 0 {
				c.BeaconEvery = it
			}
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
			// Fires within 2x IterTime (randomized to [T, 2T)), well before
			// the workers' own SchedulerTimeout of 4x IterTime — failover
			// completes without any worker entering degraded mode.
			c.Replication.ElectionTimeout = it
		}
		if c.Replication.StandbySchedulers > 0 {
			if c.SchedulerTimeout == 0 {
				c.SchedulerTimeout = 4 * it
			}
			if c.BeaconEvery == 0 {
				c.BeaconEvery = it
			}
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
	// Accuracy is the eval-accuracy series (if requested and supported).
	Accuracy metrics.Series
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
	// Faults is the fault/recovery accounting (crashes, restarts,
	// checkpoints, drops, evictions). Nil unless Config.Faults was set.
	Faults *metrics.Faults
	// Scale is the elastic-membership accounting (joins, leaves, migrations,
	// migrated bytes, per-migration durations). Nil unless Config.Scale was
	// set.
	Scale *core.ScaleStats
	// Obs is the condensed observability summary: pull/compute/push and
	// abort-to-restart latency histograms, staleness distribution, and the
	// counter totals.
	Obs *obs.Summary
	// Flight is the flight-recorder dump: the last control-plane decisions
	// (barrier releases, migrations, faults, straggler flags) with virtual
	// timestamps.
	Flight obs.FlightDump
	// Replication is the replicated-plane accounting (elections, terms,
	// promotions, forwarded/applied pushes). Nil unless Config.Replication
	// was enabled.
	Replication *ReplicationStats
	// SchemeSwitches counts the SchemeSwitch retargets the scheduler issued
	// (scheme variants and the meta-scheme; always 0 on static runs), and
	// FinalScheme names the discipline the fleet ended the run under.
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
// lives. Run calls it before it builds anything. Empty scale and straggler
// plans count as absent.
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
	scaling, straggling := !c.Scale.Empty(), !c.Stragglers.Empty()
	if scaling {
		if err := c.Scale.Validate(); err != nil {
			return err
		}
	}
	if straggling {
		if err := c.Stragglers.Validate(); err != nil {
			return err
		}
		if mw := c.Stragglers.MaxWorker(); mw >= c.Workers {
			return fmt.Errorf("cluster: straggler plan targets worker %d but the cluster has %d", mw, c.Workers)
		}
	}
	if c.Switcher != nil {
		if err := c.Switcher.Validate(); err != nil {
			return err
		}
	}

	faulty := c.Faults != nil || c.Churn != nil
	mitigating := c.Mitigation != stragglers.MitigateNone
	sc := c.Scheme
	switch {
	case c.Faults != nil && c.Churn != nil:
		return fmt.Errorf("cluster: Faults cannot be combined with Churn (churn generates the fault plan)")
	case scaling && faulty:
		return fmt.Errorf("cluster: Scale cannot be combined with Faults (restarts assume the static cluster shape; see DESIGN.md, Elasticity)")
	case scaling && sc.Decentralized:
		return fmt.Errorf("cluster: Scale cannot be combined with decentralized speculation (the peer list is static)")
	case c.Replication.Enabled() && scaling:
		return fmt.Errorf("cluster: Replication cannot be combined with Scale (promotion and election rebuild nodes at the static cluster shape)")
	case c.Replication.Enabled() && c.Faults != nil && !c.Faults.CrashOnly():
		return fmt.Errorf("cluster: Replication requires a crash-only fault plan (a dropped or partitioned replication message would silently stall a backup; see DESIGN.md, Replication)")
	case c.Replication.StandbySchedulers > 0 && sc.Decentralized:
		return fmt.Errorf("cluster: standby schedulers cannot be combined with decentralized speculation (there is no scheduler to replicate)")
	case straggling && faulty:
		return fmt.Errorf("cluster: Stragglers cannot be combined with Faults (restarts re-anchor the profile's speed windows mid-run)")
	case straggling && scaling:
		return fmt.Errorf("cluster: Stragglers cannot be combined with Scale (the profile indexes a fixed worker set)")
	case mitigating && !straggling:
		return fmt.Errorf("cluster: mitigation %q without a straggler plan", c.Mitigation)
	case mitigating && sc.Decentralized:
		return fmt.Errorf("cluster: straggler mitigation requires the centralized scheduler (Decentralized unsupported)")
	case mitigating && c.Switcher != nil:
		return fmt.Errorf("cluster: straggler mitigation cannot be combined with the meta-scheme (both act on the same detector)")
	case mitigating && c.Replication.Enabled():
		return fmt.Errorf("cluster: straggler mitigation cannot be combined with Replication (clone dedup and the replicated-path dedup would fight over push watermarks)")
	case c.Switcher != nil && sc.Variant != scheme.VariantNone:
		return fmt.Errorf("cluster: the meta-scheme cannot be combined with scheme variant %s (both rewrite the discipline mid-run)", sc.Variant)
	case c.Switcher != nil && sc.Decentralized:
		return fmt.Errorf("cluster: the meta-scheme requires the centralized scheduler (Decentralized unsupported)")
	case c.Switcher != nil && sc.Spec != scheme.SpecOff:
		return fmt.Errorf("cluster: the meta-scheme cannot be combined with speculation (a switch into BSP would leave speculation windows with nothing to abort)")
	case c.Switcher != nil && sc.NaiveWait != 0:
		return fmt.Errorf("cluster: the meta-scheme is incompatible with NaiveWait")
	}

	dim, servers := mdl.Dim(), c.servers()
	if dim < servers {
		return fmt.Errorf("cluster: model dim %d is smaller than %d server shards; every shard needs at least one parameter (use fewer servers or a larger model)", dim, servers)
	}
	if scaling {
		if maxServers := c.Scale.MaxServers(servers); dim < maxServers {
			return fmt.Errorf("cluster: model dim %d is smaller than the %d server shards the scale plan grows to", dim, maxServers)
		}
		if maxWorkers := c.Scale.MaxWorkers(c.Workers); mdl.NumShards() < maxWorkers {
			return fmt.Errorf("cluster: workload has %d data shards for the %d workers the scale plan grows to", mdl.NumShards(), maxWorkers)
		}
	}
	return nil
}

// Run executes one simulated training job to convergence (or MaxVirtual).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// An empty plan is indistinguishable from no plan: the run stays on the
	// legacy fixed-shard path with zero routing overhead, and without speed
	// scripts, link hook or detection timer.
	if cfg.Scale.Empty() {
		cfg.Scale = nil
	}
	if cfg.Stragglers.Empty() {
		cfg.Stragglers = nil
	}
	if cfg.Churn != nil {
		churn := *cfg.Churn
		churn.Workers, churn.Servers, churn.ServerFraction = cfg.Workers, cfg.servers(), 0.25
		plan, err := faults.Generate(cfg.Seed, churn)
		if err != nil {
			return nil, err
		}
		cfg.Faults, cfg.Churn = plan, nil
	}
	cfg.applyDefaults()

	mdl := cfg.Workload.Model
	dim := mdl.Dim()
	// Capacity: the slots the cluster may grow into under the scale plan.
	// Without a plan both equal the initial shape.
	maxWorkers, maxServers := cfg.Workers, cfg.Servers
	if cfg.Scale != nil {
		maxWorkers = cfg.Scale.MaxWorkers(cfg.Workers)
		maxServers = cfg.Scale.MaxServers(cfg.Servers)
	}
	cloneMode := cfg.Mitigation == stragglers.MitigateClone
	rebalanceMode := cfg.Mitigation == stragglers.MitigateRebalance
	if cloneMode || rebalanceMode {
		// Neither mitigation needs extra data shards for its spare slots: a
		// clone shares its target's shard, and a rebalance replacement
		// inherits its retired predecessor's.
		maxWorkers = cfg.Workers + cfg.Spares
	}
	ranges, err := ps.ShardRanges(dim, cfg.Servers)
	if err != nil {
		return nil, err
	}
	// The committed routing table (elastic runs only): starts as the identity
	// shard→slot map and is replaced by the scheduler's OnRouting callback at
	// each migration commit, so joining workers receive the current layout.
	var curRouting *core.RoutingTable
	if cfg.Scale != nil || rebalanceMode {
		shards := make([]core.ShardRoute, len(ranges))
		for i, r := range ranges {
			shards[i] = core.ShardRoute{Lo: r.Lo, Hi: r.Hi, Server: i}
		}
		curRouting = &core.RoutingTable{Epoch: 0, Shards: shards}
	}

	transfer := metrics.NewTransfer(msg.IsControl)
	collector := trace.NewCollector()
	o := cfg.Obs
	if o == nil {
		o = obs.New(obs.Options{})
	}
	o.SetTracer(collector)
	registry := msg.Registry()
	o.Registry().SetCollector("transfer", func(w io.Writer) {
		transfer.WritePrometheus(w, registry.Name)
	})
	codecStats := codec.NewStats(msg.CodecLabeler(cfg.Codec.PushName(), cfg.Codec.PullName()))
	o.Registry().SetCollector("codec", func(w io.Writer) {
		codecStats.WritePrometheus(w, registry.Name)
	})

	sim, err := des.New(des.Config{
		Seed:     cfg.Seed,
		Net:      cfg.Net,
		Registry: registry,
		Transfer: codecStats.Tap(transfer),
		Metrics:  o.Registry(),
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
	var stragglerScripts [][]worker.SpeedWindow
	if cfg.Stragglers != nil {
		stragglerScripts, err = cfg.Stragglers.Scripts(cfg.Workers)
		if err != nil {
			return nil, err
		}
		o.Scheduler().SetStragglerTruth(cfg.Stragglers.Targets())
	}

	// Identical initial parameters for every scheme at the same seed.
	initRng := rand.New(rand.NewSource(cfg.Seed ^ 0x1217))
	initVec := mdl.Init(initRng)

	var faultM *metrics.Faults
	if cfg.Faults != nil || cfg.Replication.Enabled() {
		faultM = metrics.NewFaults(msg.IsControl)
		o.Registry().SetCollector("faults", func(w io.Writer) {
			faultM.WritePrometheus(w)
		})
	}

	// makeServer / makeWorker build a node from scratch; used for initial
	// construction and again by the fault injector for restarts (a restarted
	// node is a fresh incarnation with the same static configuration).
	newOptimizer := func(n int) (*optimizer.SGD, error) {
		return optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: cfg.Workload.Schedule,
			Momentum: cfg.Workload.Momentum,
			Clip:     cfg.Workload.Clip,
		}, n)
	}
	makeServer := func(shard int) (*ps.Server, error) {
		r := ranges[shard]
		opt, err := newOptimizer(r.Len())
		if err != nil {
			return nil, err
		}
		scfg := ps.Config{
			Range:      r,
			Init:       initVec[r.Lo:r.Hi],
			Optimizer:  opt,
			Obs:        o.Server(shard),
			DeltaPull:  cfg.Codec.UsesDelta(),
			CodecStats: codecStats,
		}
		if cfg.Scale != nil {
			scfg.NewOptimizer = newOptimizer
		}
		if cloneMode {
			scfg.DedupPushes = true
			scfg.CloneBase = int32(cfg.Workers)
		}
		return ps.New(scfg)
	}
	// makeJoiningServer builds an empty, frozen shard for a slot added by the
	// scale plan; a migration hands it state before it serves anything.
	makeJoiningServer := func(slot int) (*ps.Server, error) {
		return ps.NewJoining(ps.Config{
			NewOptimizer: newOptimizer,
			Obs:          o.Server(slot),
			DeltaPull:    cfg.Codec.UsesDelta(),
			CodecStats:   codecStats,
		})
	}
	// makeWorker builds the worker for slot i; shard >= 0 overrides its data
	// shard (rebalance replacements inherit their retired predecessor's).
	makeWorker := func(i int, joining bool, shard int) (*worker.Worker, error) {
		speed := 1.0
		if cfg.Speeds != nil && i < len(cfg.Speeds) {
			speed = cfg.Speeds[i]
		}
		if i >= cfg.Workers && cfg.SpareSpeed > 0 {
			speed = cfg.SpareSpeed
		}
		wcfg := worker.Config{
			Index:  i,
			Shards: ranges,
			Model:  mdl,
			Scheme: cfg.Scheme,
			Compute: worker.ComputeModel{
				Base:        cfg.Workload.IterTime,
				Speed:       speed,
				JitterSigma: cfg.Workload.JitterSigma,
			},
			Tracer:           collector,
			Obs:              o.Worker(i),
			AbortLateFrac:    cfg.AbortLateFrac,
			MaxIters:         cfg.MaxItersPerWorker,
			NumWorkers:       cfg.Workers,
			HeartbeatEvery:   cfg.HeartbeatEvery,
			RetryAfter:       cfg.RetryAfter,
			SchedulerTimeout: cfg.SchedulerTimeout,
			Faults:           faultM,
			Codec:            cfg.Codec,
			CodecStats:       codecStats,
			ReportSpans:      cfg.Scheme.DynamicBase() || cfg.Switcher != nil || cfg.Stragglers != nil,
		}
		if i < len(cfg.Slowdowns) && cfg.Slowdowns[i].Factor >= 1 {
			sd := cfg.Slowdowns[i]
			wcfg.Slowdown = &sd
		}
		if i < len(stragglerScripts) && len(stragglerScripts[i]) > 0 {
			wcfg.Script = stragglerScripts[i]
		}
		if cfg.Scale != nil || rebalanceMode {
			wcfg.Shards = nil
			wcfg.Routing = curRouting.Clone()
			wcfg.JoinOnInit = joining
		}
		if shard >= 0 {
			wcfg.DataShard = &shard
		}
		return worker.New(wcfg)
	}

	// Slices are sized to the plan's capacity; slots beyond the initial shape
	// stay nil until the plan adds them.
	servers := make([]*ps.Server, maxServers)
	for i := range ranges {
		srv, err := makeServer(i)
		if err != nil {
			return nil, err
		}
		servers[i] = srv
		if err := sim.AddNode(node.ServerID(i), srv); err != nil {
			return nil, err
		}
	}

	// Shard backups: R replicas per shard, each a real ps.Server with the
	// same initial parameters and optimizer, in replica mode (serves no
	// worker traffic, applies the primary's version-stamped forward stream).
	// Starting identical and applying the identical sequence keeps every
	// backup byte-for-byte in sync with its primary.
	var shardReplicas [][]*ps.Server
	if R := cfg.Replication.Replicas; R > 0 {
		makeReplica := func(shard int) (*ps.Server, error) {
			r := ranges[shard]
			opt, err := newOptimizer(r.Len())
			if err != nil {
				return nil, err
			}
			return ps.New(ps.Config{
				Range:      r,
				Init:       initVec[r.Lo:r.Hi],
				Optimizer:  opt,
				Replica:    true,
				Obs:        o.Server(shard),
				DeltaPull:  cfg.Codec.UsesDelta(),
				CodecStats: codecStats,
			})
		}
		shardReplicas = make([][]*ps.Server, cfg.Servers)
		for shard := range ranges {
			backups := make([]node.ID, R)
			shardReplicas[shard] = make([]*ps.Server, R)
			for r := 1; r <= R; r++ {
				backups[r-1] = node.ReplicaID(shard, r)
				rep, err := makeReplica(shard)
				if err != nil {
					return nil, err
				}
				shardReplicas[shard][r-1] = rep
				if err := sim.AddNode(node.ReplicaID(shard, r), rep); err != nil {
					return nil, err
				}
			}
			servers[shard].SetBackups(backups)
		}
	}

	workers := make([]*worker.Worker, maxWorkers)
	for i := 0; i < cfg.Workers; i++ {
		wk, err := makeWorker(i, false, -1)
		if err != nil {
			return nil, err
		}
		workers[i] = wk
		if err := sim.AddNode(node.WorkerID(i), wk); err != nil {
			return nil, err
		}
	}

	maxAbortFrac := cfg.MaxAbortFrac
	if maxAbortFrac == 0 {
		maxAbortFrac = 0.125
	}

	// Straggler mitigation: the scheduler's periodic pass calls back into the
	// harness to materialize spare nodes — a clone sharing its target's data
	// shard, or a fresh joining replacement. Both enter the sim mid-run.
	var mitCfg *core.MitigateConfig
	if cfg.Stragglers != nil {
		mode := core.MitigateObserve
		switch cfg.Mitigation {
		case stragglers.MitigateClone:
			mode = core.MitigateClone
		case stragglers.MitigateRebalance:
			mode = core.MitigateRebalance
		}
		mitCfg = &core.MitigateConfig{
			Mode:   mode,
			Base:   cfg.Workers,
			Spares: maxWorkers - cfg.Workers,
		}
		if cloneMode {
			serverIDs := make([]node.ID, cfg.Servers)
			for i := range serverIDs {
				serverIDs[i] = node.ServerID(i)
			}
			mitCfg.Servers = serverIDs
			mitCfg.OnClone = func(slot, target int, fromIter int64) error {
				maxIters := cfg.MaxItersPerWorker
				if maxIters > 0 {
					// The clone resumes the target's absolute iteration count,
					// but MaxIters caps per-incarnation completions.
					if maxIters -= fromIter; maxIters <= 0 {
						return fmt.Errorf("cluster: worker %d already spent its iteration budget", target)
					}
				}
				wk, err := worker.New(worker.Config{
					Index:  target, // the target's data shard; pushes count as its work
					Shards: ranges,
					Model:  mdl,
					Scheme: cfg.Scheme,
					Compute: worker.ComputeModel{
						Base:        cfg.Workload.IterTime,
						Speed:       cfg.SpareSpeed,
						JitterSigma: cfg.Workload.JitterSigma,
					},
					Tracer:        collector,
					Obs:           o.Worker(target),
					AbortLateFrac: cfg.AbortLateFrac,
					MaxIters:      maxIters,
					NumWorkers:    cfg.Workers,
					RetryAfter:    cfg.RetryAfter,
					Faults:        faultM,
					Codec:         cfg.Codec,
					CodecStats:    codecStats,
					ReportSpans:   true,
				})
				if err != nil {
					return err
				}
				workers[slot] = wk
				return sim.Join(node.WorkerID(slot), wk)
			}
		}
		if rebalanceMode {
			mitCfg.OnSpawn = func(slot, target int) error {
				// The replacement takes over the retired straggler's data
				// shard, so the swap changes who computes, not what is
				// trained on.
				wk, err := makeWorker(slot, true, target)
				if err != nil {
					return err
				}
				workers[slot] = wk
				return sim.Join(node.WorkerID(slot), wk)
			}
		}
	}

	// makeScheduler builds a scheduler incarnation; gen 0 is the initial one,
	// higher generations are fault-injector restarts (their Init broadcasts
	// SchedulerHello instead of Start).
	makeScheduler := func(gen int64) (*core.Scheduler, error) {
		return core.NewScheduler(core.SchedulerConfig{
			Workers:           maxWorkers,
			ActiveWorkers:     cfg.Workers,
			Routing:           curRouting,
			OnRouting:         func(t *core.RoutingTable) { curRouting = t },
			Scheme:            cfg.Scheme,
			InitialSpan:       cfg.Workload.IterTime,
			Tracer:            collector,
			OnTune:            cfg.OnTune,
			RateMargin:        cfg.RateMargin,
			CheckAtExpiryOnly: cfg.CheckAtExpiryOnly,
			LivenessTimeout:   cfg.LivenessTimeout,
			Switcher:          cfg.Switcher,
			TrackSpans:        cfg.Stragglers != nil,
			Mitigate:          mitCfg,
			Generation:        gen,
			BeaconEvery:       cfg.BeaconEvery,
			Faults:            faultM,
			Obs:               o.Scheduler(),
			Tuner: core.TunerConfig{
				MinAbort: 4 * cfg.Net.Latency,
				// With the eager threshold check, an abort costs only the time
				// elapsed when the push rate crosses the threshold, so windows
				// up to the paper's grid bound (half an iteration) are usable.
				MaxAbort:      time.Duration(maxAbortFrac * float64(cfg.Workload.IterTime)),
				MaxCandidates: 512,
			},
		})
	}
	sched, err := makeScheduler(0)
	if err != nil {
		return nil, err
	}

	// Iterations and aborts retired by crashed worker incarnations; the
	// replacement starts its counters from zero. Likewise re-syncs and epochs
	// retired by crashed (or deposed) scheduler incarnations.
	var retiredIters, retiredAborts, retiredResyncs int64
	var maxEpochs int

	// retireScheduler folds the outgoing incarnation's counters into the
	// retired totals and swaps the accounting reference to its successor.
	retireScheduler := func(s *core.Scheduler) {
		retiredResyncs += sched.ReSyncsSent()
		if e := sched.Epoch(); e > maxEpochs {
			maxEpochs = e
		}
		sched = s
	}

	// Control-plane replication: the bootstrap scheduler serves behind a
	// Leader wrapper that ships its snapshot to S standby incarnations; a
	// crash then ends in an election instead of degraded broadcast mode.
	var leader *replica.Leader
	var standbys []*replica.Standby
	if S := cfg.Replication.StandbySchedulers; S > 0 {
		leader, err = replica.NewLeader(replica.LeaderConfig{
			Sched:          sched,
			Standbys:       S,
			ReplicateEvery: cfg.Replication.ReplicateEvery,
			Obs:            o,
		})
		if err != nil {
			return nil, err
		}
		if err := sim.AddNode(node.Scheduler, leader); err != nil {
			return nil, err
		}
		for i := 1; i <= S; i++ {
			sb, err := replica.NewStandby(replica.StandbyConfig{
				Index:           i,
				Standbys:        S,
				Workers:         maxWorkers,
				ElectionTimeout: cfg.Replication.ElectionTimeout,
				ReplicateEvery:  cfg.Replication.ReplicateEvery,
				MakeScheduler:   makeScheduler,
				OnPromote:       func(_ *replica.Standby, s *core.Scheduler) { retireScheduler(s) },
				Faults:          faultM,
				Obs:             o,
			})
			if err != nil {
				return nil, err
			}
			standbys = append(standbys, sb)
			if err := sim.AddNode(node.StandbyID(i), sb); err != nil {
				return nil, err
			}
		}
	} else {
		if err := sim.AddNode(node.Scheduler, sched); err != nil {
			return nil, err
		}
	}

	var inj *faults.SimInjector
	if cfg.Faults != nil {
		inj, err = faults.AttachSim(sim, faults.SimOptions{
			Plan:            cfg.Faults,
			NumWorkers:      cfg.Workers,
			NumServers:      cfg.Servers,
			Tracer:          collector,
			Faults:          faultM,
			CheckpointEvery: cfg.CheckpointEvery,
			NewWorker: func(i int) (node.Handler, error) {
				return makeWorker(i, false, -1)
			},
			NewServer:    makeServer,
			NewScheduler: makeScheduler,
			Server:       func(shard int) *ps.Server { return servers[shard] },
			Scheduler:    func() *core.Scheduler { return sched },
			Replicas:     cfg.Replication.Replicas,
			Standbys:     cfg.Replication.StandbySchedulers,
			ReplicaServer: func(shard, r int) *ps.Server {
				if shardReplicas == nil || r < 1 || r > len(shardReplicas[shard]) {
					return nil
				}
				return shardReplicas[shard][r-1]
			},
			OnPromote: func(shard int, srv *ps.Server) {
				o.RecordFlight(obs.FlightEvent{
					At:     sim.Now(),
					Kind:   "replica-promote",
					Node:   string(node.ServerID(shard)),
					Value:  float64(srv.Version()),
					Detail: "backup promoted to shard primary",
				})
			},
			OnWorkerRestart: func(i int, h node.Handler) {
				retiredIters += workers[i].IterationsDone()
				retiredAborts += workers[i].Aborts()
				workers[i] = h.(*worker.Worker)
			},
			OnServerRestart: func(shard int, srv *ps.Server) {
				servers[shard] = srv
			},
			OnSchedulerRestart: func(s *core.Scheduler) { retireScheduler(s) },
		})
		if err != nil {
			return nil, err
		}
	}

	var einj *elastic.SimInjector
	if cfg.Scale != nil {
		einj, err = elastic.AttachSim(sim, elastic.SimOptions{
			Plan:    cfg.Scale,
			Workers: cfg.Workers,
			Servers: cfg.Servers,
			NewWorker: func(i int) (node.Handler, error) {
				return makeWorker(i, true, -1)
			},
			NewServer: func(slot int) (node.Handler, error) {
				return makeJoiningServer(slot)
			},
			OnWorkerAdd: func(i int, h node.Handler) { workers[i] = h.(*worker.Worker) },
			OnServerAdd: func(slot int, h node.Handler) { servers[slot] = h.(*ps.Server) },
		})
		if err != nil {
			return nil, err
		}
	}

	sim.Init()

	res := &Result{
		SchemeName: cfg.Scheme.Name(),
		Transfer:   transfer,
		Codec:      codecStats,
	}
	accModel, hasAcc := mdl.(model.Accuracier)

	probeVec := tensor.NewVec(dim)
	assemble := func() tensor.Vec {
		// Each live shard contributes its committed range. During a migration
		// the involved shards are frozen (no updates applied), so overlapping
		// old/staged ranges hold identical values and the copy order does not
		// matter; retired and not-yet-committed shards own nothing.
		for _, srv := range servers {
			if srv == nil || srv.Retired() {
				continue
			}
			p := srv.Params()
			r := srv.Range()
			if len(p) == r.Len() && r.Len() > 0 {
				copy(probeVec[r.Lo:r.Hi], p)
			}
		}
		return probeVec
	}
	totalIters := func() int64 {
		n := retiredIters
		for _, wk := range workers {
			if wk != nil {
				n += wk.IterationsDone()
			}
		}
		return n
	}

	streak := 0
	converged := false
	var stopAt time.Time
	var probe func()
	probe = func() {
		now := sim.Elapsed()
		w := assemble()
		loss := mdl.EvalLoss(w)
		res.Loss.Add(now, loss)
		res.IterSeries.Add(now, float64(totalIters()))
		res.TransferSeries.Add(now, float64(transfer.TotalBytes()))
		if cfg.RecordAccuracy && hasAcc {
			res.Accuracy.Add(now, accModel.EvalAccuracy(w))
		}
		if !converged {
			if loss < cfg.Workload.TargetLoss {
				streak++
			} else {
				streak = 0
			}
			if streak >= cfg.ConsecutiveBelow {
				converged = true
				res.Converged = true
				res.ItersAtConverge = totalIters()
				stopAt = sim.Now().Add(cfg.RunPastConverge)
			}
		}
		if converged && !sim.Now().Before(stopAt) {
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
	if einj != nil {
		if errs := einj.Errs(); len(errs) > 0 {
			return nil, fmt.Errorf("cluster: elastic injector: %v", errs[0])
		}
		stats := sched.ScaleStats()
		res.Scale = &stats
	}
	if cfg.Stragglers != nil {
		st := &StragglerStats{
			Score:      stragglers.ScoreDetection(cfg.Stragglers.Targets(), o.Scheduler().StragglersDetected()),
			Mitigation: sched.MitigationStats(),
		}
		for _, srv := range servers {
			if srv != nil {
				d, dr := srv.CloneStats()
				st.CloneDeduped += d
				st.CloneDropped += dr
			}
		}
		res.Stragglers = st
		if rebalanceMode {
			stats := sched.ScaleStats()
			res.Scale = &stats
		}
	}
	res.Elapsed = sim.Elapsed()
	res.TotalIters = totalIters()
	res.Aborts = retiredAborts
	for _, wk := range workers {
		if wk != nil {
			res.Aborts += wk.Aborts()
		}
	}
	res.Faults = faultM
	res.ReSyncs = retiredResyncs + sched.ReSyncsSent()
	res.Epochs = sched.Epoch()
	if maxEpochs > res.Epochs {
		res.Epochs = maxEpochs
	}
	res.SchemeSwitches = sched.SchemeSwitches()
	res.FinalScheme = sched.Runtime().String()
	res.FinalLoss = res.Loss.Last().V
	if t, ok := res.Loss.TimeToConverge(cfg.Workload.TargetLoss, cfg.ConsecutiveBelow); ok {
		res.ConvergeTime = t
		res.Converged = true
	}
	if cfg.Replication.Enabled() {
		rs := &ReplicationStats{
			Replicas:          cfg.Replication.Replicas,
			StandbySchedulers: cfg.Replication.StandbySchedulers,
			LeaderNode:        string(node.Scheduler),
		}
		if leader != nil {
			rs.SnapshotsShipped = leader.Shipped()
		}
		for i, sb := range standbys {
			rs.Elections += sb.Elections()
			rs.SnapshotsShipped += sb.Shipped()
			if t := sb.Term(); t > rs.FinalTerm {
				rs.FinalTerm = t
			}
			if sb.Role() == replica.RoleLeader {
				rs.LeaderNode = string(node.StandbyID(i + 1))
			}
		}
		// Replicated-push accounting over the union of every server that ever
		// served or backed a shard: the promoted backup appears both in
		// servers and in its replica slot, so dedup by pointer.
		seen := make(map[*ps.Server]bool)
		tally := func(srv *ps.Server) {
			if srv == nil || seen[srv] {
				return
			}
			seen[srv] = true
			f, a, d := srv.ReplStats()
			rs.Forwarded += f
			rs.Applied += a
			rs.Deduped += d
		}
		for _, srv := range servers {
			tally(srv)
		}
		for _, reps := range shardReplicas {
			for _, rep := range reps {
				tally(rep)
			}
		}
		if faultM != nil {
			rs.Promotions = faultM.Stats().Promotions
		}
		res.Replication = rs
	}
	if cfg.KeepTrace {
		res.Trace = collector
	}
	res.Obs = o.Summary()
	res.Flight = o.FlightDump()
	res.ParamsDigest = paramsDigest(assemble())
	return res, nil
}

// paramsDigest hashes a parameter vector bit-exactly (IEEE-754 bits, little
// endian), so two runs share a digest iff their final models are
// byte-identical.
func paramsDigest(w tensor.Vec) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
