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
	"specsync/internal/faults"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/replica"
	"specsync/internal/stragglers"
	"specsync/internal/tensor"
	"specsync/internal/trace"
	"specsync/internal/worker"
)

// Nodes is the node set of one spec: every handler, keyed by node.ID and
// built in one place whichever runtime hosts it — Run on des.Sim,
// RunLoopback on live.Loopback, specsync-node one node per TCPHost. Handler
// builds a node on first use, so a process hosting one node builds (and
// registers telemetry for) only that one. Nodes also builds what a running
// cluster adds — restarts, clones, rebalance replacements, an elected
// standby's scheduler — and keeps the current incarnation of every slot and
// the counters of retired ones, so every runner reads its Result alike.
type Nodes struct {
	cfg Config // validated, plans normalized, defaults applied

	// The run's ledgers, shared by every node the set builds.
	obs       *obs.Obs
	transfer  *metrics.Transfer
	codec     *codec.Stats
	collector *trace.Collector // nil unless cfg.KeepTrace
	tracer    trace.Tracer     // collector, or nil
	faults    *obs.FaultObs    // nil unless a fault plan or replication

	ranges  []ps.Range
	initVec tensor.Vec
	// scripts are the straggler plan's per-worker speed windows, measured
	// from each worker's Init, so co-started live processes line up.
	scripts    [][]worker.SpeedWindow
	maxWorkers int // worker capacity: the initial workers and any spare slots
	// routing is the routing table of rebalance runs, whose replacements
	// join the running cluster; nil otherwise.
	routing  *core.RoutingTable
	mitigate *core.MitigateConfig
	join     func(node.ID, node.Handler) error // hosts a clone or replacement; set by the runner

	// The handler table: the current incarnation in each slot, nil until
	// built. Worker slots are sized to the capacity, spare slots included.
	servers   []*ps.Server
	replicas  [][]*ps.Server // [shard][r-1]
	workers   []*worker.Worker
	sched     *core.Scheduler // the serving scheduler
	schedNode node.Handler    // what node.Scheduler hosts: sched, or a Leader embedding it
	standbys  []*replica.Standby

	// Iterations and aborts of crashed worker incarnations, and re-syncs and
	// epochs of crashed or deposed scheduler incarnations: a replacement
	// counts from zero.
	retiredIters, retiredAborts, retiredResyncs int64
	maxEpochs                                   int

	probeVec tensor.Vec
}

// Build validates cfg and derives what every node of it shares: the shard
// layout, the initial parameters (drawn from Seed^0x1217, identical for
// every scheme at one seed), the straggler scripts and the run's ledgers. An
// empty straggler plan counts as absent, a churn block becomes its generated
// fault plan, and the defaults WithDefaults documents are applied.
func Build(cfg Config) (*Nodes, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// An empty plan is indistinguishable from no plan: the run has no speed
	// scripts, link hook or detection timer.
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
	ranges, err := ps.ShardRanges(mdl.Dim(), cfg.Servers)
	if err != nil {
		return nil, err
	}
	n := &Nodes{
		cfg:      cfg,
		obs:      cfg.Obs,
		transfer: metrics.NewTransfer(msg.IsControl),
		codec:    codec.NewStats(msg.CodecLabeler(cfg.Codec.PushName(), cfg.Codec.PullName())),
		ranges:   ranges,
		initVec:  mdl.Init(rand.New(rand.NewSource(cfg.Seed ^ 0x1217))),
		probeVec: tensor.NewVec(mdl.Dim()),
	}
	if n.obs == nil {
		n.obs = obs.New(obs.Options{})
	}
	if cfg.KeepTrace {
		n.collector = trace.NewCollector()
		n.tracer = n.collector
		n.obs.SetTracer(n.collector)
	}
	registry := msg.Registry()
	n.obs.Registry().SetCollector("transfer", func(w io.Writer) {
		n.transfer.WritePrometheus(w, registry.Name)
	})
	n.obs.Registry().SetCollector("codec", func(w io.Writer) {
		n.codec.WritePrometheus(w, registry.Name)
	})
	if cfg.Faults != nil || cfg.Replication.Enabled() {
		n.faults = n.obs.Faults()
	}

	// Capacity: the spare slots mitigation may fill. Neither mitigation needs
	// extra data shards for them: a clone shares its target's shard, and a
	// rebalance replacement inherits its retired predecessor's.
	n.maxWorkers = cfg.Workers
	if cfg.Mitigation != stragglers.MitigateNone {
		n.maxWorkers = cfg.Workers + cfg.Spares
	}
	n.servers = make([]*ps.Server, cfg.Servers)
	n.workers = make([]*worker.Worker, n.maxWorkers)
	n.replicas = make([][]*ps.Server, cfg.Servers)
	for shard := range n.replicas {
		n.replicas[shard] = make([]*ps.Server, cfg.Replication.Replicas)
	}
	n.standbys = make([]*replica.Standby, cfg.Replication.StandbySchedulers)
	if cfg.Mitigation == stragglers.MitigateRebalance {
		shards := make([]core.ShardRoute, len(ranges))
		for i, r := range ranges {
			shards[i] = core.ShardRoute{Lo: r.Lo, Hi: r.Hi, Server: i}
		}
		n.routing = &core.RoutingTable{Epoch: 0, Shards: shards}
	}
	if cfg.Stragglers != nil {
		if n.scripts, err = cfg.Stragglers.Scripts(cfg.Workers); err != nil {
			return nil, err
		}
		n.mitigate = n.mitigateConfig()
	}
	return n, nil
}

// IDs lists the nodes of the spec's initial shape in start order: servers,
// replicas (shard-major), workers, the scheduler, standby schedulers.
func (n *Nodes) IDs() []node.ID {
	var ids []node.ID
	for i := 0; i < n.cfg.Servers; i++ {
		ids = append(ids, node.ServerID(i))
	}
	for shard := 0; shard < n.cfg.Servers; shard++ {
		for r := 1; r <= n.cfg.Replication.Replicas; r++ {
			ids = append(ids, node.ReplicaID(shard, r))
		}
	}
	for i := 0; i < n.cfg.Workers; i++ {
		ids = append(ids, node.WorkerID(i))
	}
	ids = append(ids, node.Scheduler)
	for i := 1; i <= n.cfg.Replication.StandbySchedulers; i++ {
		ids = append(ids, node.StandbyID(i))
	}
	return ids
}

// Handler returns node id's handler, building it on first use. The
// scheduler is the bootstrap incarnation, Scheduler(0).
func (n *Nodes) Handler(id node.ID) (node.Handler, error) {
	if i := node.ServerIndex(id); i >= 0 && i < n.cfg.Servers {
		return memo(&n.servers[i], func() (*ps.Server, error) {
			srv, err := n.newShard(i, false)
			if err == nil { // only the bootstrap primary has backups; a restart serves alone
				var backups []node.ID
				for r := 1; r <= n.cfg.Replication.Replicas; r++ {
					backups = append(backups, node.ReplicaID(i, r))
				}
				srv.SetBackups(backups)
			}
			return srv, err
		})
	}
	if shard, r := node.ReplicaOf(id); shard >= 0 && shard < n.cfg.Servers && r >= 1 && r <= n.cfg.Replication.Replicas {
		return memo(&n.replicas[shard][r-1], func() (*ps.Server, error) { return n.newShard(shard, true) })
	}
	if i := node.WorkerIndex(id); i >= 0 && i < n.cfg.Workers {
		return memo(&n.workers[i], func() (*worker.Worker, error) { return n.newWorker(i, false, -1) })
	}
	if i := node.StandbyIndex(id); i >= 1 && i <= len(n.standbys) {
		return memo(&n.standbys[i-1], func() (*replica.Standby, error) { return n.newStandby(i) })
	}
	if id != node.Scheduler {
		return nil, fmt.Errorf("cluster: %s is not a node of the spec", id)
	}
	if n.schedNode == nil {
		return n.Scheduler(0)
	}
	return n.schedNode, nil
}

// memo returns the handler in slot, building it first if the slot is empty.
func memo[H interface {
	comparable
	node.Handler
}](slot *H, build func() (H, error)) (node.Handler, error) {
	var empty H
	if *slot == empty {
		h, err := build()
		if err != nil {
			return nil, err
		}
		*slot = h
	}
	return *slot, nil
}

// Scheduler builds the scheduler node as incarnation gen and makes it the
// serving one: generation 0 is the bootstrap scheduler, a higher one
// replaces a crashed scheduler and rebuilds its state from the workers. With
// standbys, the scheduler serves behind a replica.Leader at term gen that
// ships its snapshots to them.
func (n *Nodes) Scheduler(gen int64) (node.Handler, error) {
	s, err := n.newScheduler(gen)
	if err != nil {
		return nil, err
	}
	n.sched, n.schedNode = s, s
	if S := n.cfg.Replication.StandbySchedulers; S > 0 {
		leader, err := replica.NewLeader(replica.LeaderConfig{
			Sched:          s,
			Standbys:       S,
			ReplicateEvery: n.cfg.Replication.ReplicateEvery,
			Term:           gen,
			Obs:            n.obs,
		})
		if err != nil {
			return nil, err
		}
		n.schedNode = leader
	}
	return n.schedNode, nil
}

// HostConfig is the template of every TCP host of the set: the message
// registry, the seed, and the run's byte and metrics ledgers. A host sets
// its own ID, handler, address and peers.
func (n *Nodes) HostConfig() live.TCPHostConfig {
	return live.TCPHostConfig{
		Registry: msg.Registry(),
		Seed:     n.cfg.Seed,
		Transfer: n.codec.Tap(n.transfer),
		Metrics:  n.obs.Registry(),
	}
}

func (n *Nodes) newOptimizer(size int) (*optimizer.SGD, error) {
	wl := n.cfg.Workload
	return optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip}, size)
}

// newShard builds a shard at its initial parameters: a primary (at start or
// for a fault-plan restart), or a backup replica that applies its primary's
// forward stream and so stays byte-for-byte in sync with it.
func (n *Nodes) newShard(shard int, replica bool) (*ps.Server, error) {
	r := n.ranges[shard]
	opt, err := n.newOptimizer(r.Len())
	if err != nil {
		return nil, err
	}
	scfg := ps.Config{
		Range:      r,
		Init:       n.initVec[r.Lo:r.Hi],
		Optimizer:  opt,
		Replica:    replica,
		Obs:        n.obs.Server(shard),
		CodecStats: n.codec,
	}
	if !replica && n.cfg.Mitigation == stragglers.MitigateClone {
		scfg.DedupPushes = true
		scfg.CloneBase = int32(n.cfg.Workers)
	}
	return ps.New(scfg)
}

// workerConfig is slot i's worker configuration over the static shard
// layout. Spare slots past the initial workers run at SpareSpeed.
func (n *Nodes) workerConfig(i int) worker.Config {
	cfg := &n.cfg
	speed := 1.0
	if cfg.Speeds != nil && i < len(cfg.Speeds) {
		speed = cfg.Speeds[i]
	}
	if i >= cfg.Workers && cfg.SpareSpeed > 0 {
		speed = cfg.SpareSpeed
	}
	wcfg := worker.Config{
		Index:  i,
		Shards: n.ranges,
		Model:  cfg.Workload.Model,
		Scheme: cfg.Scheme,
		Compute: worker.ComputeModel{
			Base:        cfg.Workload.IterTime,
			Speed:       speed,
			JitterSigma: cfg.Workload.JitterSigma,
		},
		Tracer:         n.tracer,
		Obs:            n.obs.Worker(i),
		MaxIters:       cfg.MaxItersPerWorker,
		HeartbeatEvery: cfg.HeartbeatEvery,
		RetryAfter:     cfg.RetryAfter,
		Codec:          cfg.Codec,
		CodecStats:     n.codec,
		ReportSpans:    cfg.reportSpans(),
	}
	if i < len(cfg.Slowdowns) && cfg.Slowdowns[i].Factor >= 1 {
		sd := cfg.Slowdowns[i]
		wcfg.Slowdown = &sd
	}
	if i < len(n.scripts) && len(n.scripts[i]) > 0 {
		wcfg.Script = n.scripts[i]
	}
	return wcfg
}

// newWorker builds the worker for slot i: at start, for a fault-plan
// restart (blank training state), or joining the running cluster (a
// rebalance replacement). shard >= 0 overrides its data shard: a rebalance
// replacement inherits its retired predecessor's.
func (n *Nodes) newWorker(i int, joining bool, shard int) (*worker.Worker, error) {
	wcfg := n.workerConfig(i)
	if n.routing != nil {
		wcfg.Shards = nil
		wcfg.Routing = n.routing.Clone()
		wcfg.JoinOnInit = joining
	}
	if shard >= 0 {
		wcfg.DataShard = &shard
	}
	return worker.New(wcfg)
}

// newScheduler builds scheduler incarnation gen: 0 is the bootstrap one,
// higher generations are restarts and elected standbys (their Init
// broadcasts SchedulerHello instead of Start).
func (n *Nodes) newScheduler(gen int64) (*core.Scheduler, error) {
	cfg := &n.cfg
	if cfg.Stragglers != nil { // the detector is scored against the plan's victims
		n.obs.Scheduler().SetStragglerTruth(cfg.Stragglers.Targets())
	}
	return core.NewScheduler(core.SchedulerConfig{
		Workers:         n.maxWorkers,
		ActiveWorkers:   cfg.Workers,
		Routing:         n.routing,
		Scheme:          cfg.Scheme,
		InitialSpan:     cfg.Workload.IterTime,
		Tracer:          n.tracer,
		OnTune:          cfg.OnTune,
		LivenessTimeout: cfg.LivenessTimeout,
		ReportSpans:     cfg.reportSpans(),
		Mitigate:        n.mitigate,
		Generation:      gen,
		BeaconEvery:     cfg.BeaconEvery,
		Obs:             n.obs.Scheduler(),
		Tuner: core.TunerConfig{
			MinAbort: 4 * cfg.Net.Latency,
			// The adaptive window's ceiling is 1/8 of the iteration time.
			MaxAbort:      time.Duration(0.125 * float64(cfg.Workload.IterTime)),
			MaxCandidates: 512,
		},
	})
}

// newStandby builds standby scheduler i (1-based): it follows the leader's
// snapshot stream and, elected, embeds a new scheduler incarnation.
func (n *Nodes) newStandby(i int) (*replica.Standby, error) {
	return replica.NewStandby(replica.StandbyConfig{
		Index:           i,
		Standbys:        n.cfg.Replication.StandbySchedulers,
		Workers:         n.maxWorkers,
		ElectionTimeout: n.cfg.Replication.ElectionTimeout,
		ReplicateEvery:  n.cfg.Replication.ReplicateEvery,
		MakeScheduler:   n.newScheduler,
		OnPromote:       func(_ *replica.Standby, s *core.Scheduler) { n.retireScheduler(s) },
		Obs:             n.obs,
	})
}

// mitigateConfig is the scheduler's straggler response. Its periodic pass
// calls back into the node set to materialize spare nodes — a clone sharing
// its target's data shard, or a fresh joining replacement — which the
// runner's join hosts mid-run.
func (n *Nodes) mitigateConfig() *core.MitigateConfig {
	cfg := &n.cfg
	m := &core.MitigateConfig{Mode: core.MitigateObserve, Base: cfg.Workers, Spares: n.maxWorkers - cfg.Workers}
	switch cfg.Mitigation {
	case stragglers.MitigateClone:
		m.Mode = core.MitigateClone
		for i := 0; i < cfg.Servers; i++ {
			m.Servers = append(m.Servers, node.ServerID(i))
		}
		m.OnClone = func(slot, target int, fromIter int64) error {
			maxIters := cfg.MaxItersPerWorker
			if maxIters > 0 {
				// The clone resumes the target's absolute iteration count,
				// but MaxIters caps per-incarnation completions.
				if maxIters -= fromIter; maxIters <= 0 {
					return fmt.Errorf("cluster: worker %d already spent its iteration budget", target)
				}
			}
			// The target's data shard, so its pushes count as the target's
			// work, on a spare host; a clone runs no script and sends no
			// heartbeats of its own.
			wcfg := n.workerConfig(target)
			wcfg.Compute.Speed, wcfg.MaxIters, wcfg.ReportSpans = cfg.SpareSpeed, maxIters, true
			wcfg.Slowdown, wcfg.Script, wcfg.HeartbeatEvery = nil, nil, 0
			wk, err := worker.New(wcfg)
			if err != nil {
				return err
			}
			n.workers[slot] = wk
			return n.join(node.WorkerID(slot), wk)
		}
	case stragglers.MitigateRebalance:
		m.Mode = core.MitigateRebalance
		m.OnSpawn = func(slot, target int) error {
			// The replacement takes over the retired straggler's data shard,
			// so the swap changes who computes, not what is trained on.
			wk, err := n.newWorker(slot, true, target)
			if err != nil {
				return err
			}
			n.workers[slot] = wk
			return n.join(node.WorkerID(slot), wk)
		}
	}
	return m
}

// retireWorker replaces slot i's crashed worker with its restart h.
func (n *Nodes) retireWorker(i int, h node.Handler) {
	n.retiredIters += n.workers[i].IterationsDone()
	n.retiredAborts += n.workers[i].Aborts()
	n.workers[i] = h.(*worker.Worker)
}

// retireScheduler folds the outgoing scheduler's counters into the retired
// totals and makes s the serving one.
func (n *Nodes) retireScheduler(s *core.Scheduler) {
	if n.sched != nil {
		n.retiredResyncs += n.sched.ReSyncsSent()
		n.maxEpochs = max(n.maxEpochs, n.sched.Epoch())
	}
	n.sched = s
}

// totalIters is the cluster-wide iteration count. Safe while the nodes run.
func (n *Nodes) totalIters() int64 {
	total := n.retiredIters
	for _, wk := range n.workers {
		if wk != nil {
			total += wk.IterationsDone()
		}
	}
	return total
}

// assemble copies the current parameters out of the shards, each into its
// range.
func (n *Nodes) assemble() tensor.Vec {
	for _, srv := range n.servers {
		if srv != nil {
			r := srv.Range()
			copy(n.probeVec[r.Lo:r.Hi], srv.Params())
		}
	}
	return n.probeVec
}

// curve records a run's probe series and applies its convergence rule:
// ConsecutiveBelow probes in a row under the target loss.
type curve struct {
	n         *Nodes
	res       *Result
	streak    int
	converged bool
}

// observe records the parameters w seen at run time at and reports whether
// the run should stop.
func (c *curve) observe(at time.Duration, w tensor.Vec) bool {
	cfg, res := &c.n.cfg, c.res
	loss := cfg.Workload.Model.EvalLoss(w)
	res.Loss.Add(at, loss)
	res.IterSeries.Add(at, float64(c.n.totalIters()))
	res.TransferSeries.Add(at, float64(c.n.transfer.TotalBytes()))
	if !c.converged {
		if loss < cfg.Workload.TargetLoss {
			c.streak++
		} else {
			c.streak = 0
		}
		if c.streak >= cfg.ConsecutiveBelow {
			c.converged = true
			res.Converged = true
			res.ItersAtConverge = c.n.totalIters()
		}
	}
	return c.converged
}

// result fills what every runner reads off the stopped nodes: counters
// summed over current and retired incarnations, the straggler and
// replicated-plane tallies, telemetry and the final parameters' digest.
func (n *Nodes) result(res *Result) {
	cfg := &n.cfg
	res.SchemeName = cfg.Scheme.Name()
	res.Transfer, res.Codec = n.transfer, n.codec
	if cfg.Mitigation == stragglers.MitigateRebalance {
		stats := n.sched.ScaleStats()
		res.Scale = &stats
	}
	if cfg.Stragglers != nil {
		st := &StragglerStats{
			Score:      stragglers.ScoreDetection(cfg.Stragglers.Targets(), n.obs.Scheduler().StragglersDetected()),
			Mitigation: n.sched.MitigationStats(),
		}
		for _, srv := range n.servers {
			if srv != nil {
				d, dr := srv.CloneStats()
				st.CloneDeduped += d
				st.CloneDropped += dr
			}
		}
		res.Stragglers = st
	}
	res.TotalIters = n.totalIters()
	res.Aborts = n.retiredAborts
	for _, wk := range n.workers {
		if wk != nil {
			res.Aborts += wk.Aborts()
		}
	}
	res.Faults = n.faults.Totals()
	res.ReSyncs = n.retiredResyncs + n.sched.ReSyncsSent()
	res.Epochs = max(n.sched.Epoch(), n.maxEpochs)
	res.SchemeSwitches = n.sched.SchemeSwitches()
	res.FinalScheme = n.sched.Gate().String()
	res.FinalLoss = res.Loss.Last().V
	if t, ok := res.Loss.TimeToConverge(cfg.Workload.TargetLoss, cfg.ConsecutiveBelow); ok {
		res.ConvergeTime = t
		res.Converged = true
	}
	if cfg.Replication.Enabled() {
		res.Replication = n.replicationStats(res.Faults)
	}
	res.Trace = n.collector
	res.Obs = n.obs.Summary()
	res.Flight = n.obs.FlightDump()
	res.ParamsDigest = paramsDigest(n.assemble())
}

// replicationStats reads the replicated planes' tallies: elections,
// promotions and snapshot ships off the fault ledger f, terms and roles off
// the standbys, push accounting off the servers.
func (n *Nodes) replicationStats(f *obs.FaultTotals) *ReplicationStats {
	rs := &ReplicationStats{
		Replicas:          n.cfg.Replication.Replicas,
		StandbySchedulers: n.cfg.Replication.StandbySchedulers,
		LeaderNode:        string(node.Scheduler),
		Elections:         f.Elections,
		Promotions:        f.Promotions,
		SnapshotsShipped:  f.SnapshotsShipped,
	}
	for i, sb := range n.standbys {
		rs.FinalTerm = max(rs.FinalTerm, sb.Term())
		if sb.Role() == replica.RoleLeader {
			rs.LeaderNode = string(node.StandbyID(i + 1))
		}
	}
	// Replicated-push accounting over the union of every server that ever
	// served or backed a shard: the promoted backup appears both in servers
	// and in its replica slot, so dedup by pointer.
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
	for _, srv := range n.servers {
		tally(srv)
	}
	for _, reps := range n.replicas {
		for _, rep := range reps {
			tally(rep)
		}
	}
	return rs
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
