package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/jobs"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/tensor"
	"specsync/internal/trace"
	"specsync/internal/worker"
)

// Fleet hosts N concurrent training jobs on one shared parameter-server
// substrate and one deterministic event loop. Each job keeps its own scheme,
// workload, seed, and quota; the shared server slots multiplex per-job shard
// tenants (jobs.ServerHost), and the jobs manager admits, probes, and retires
// jobs on a periodic control tick.
//
// Job 0 occupies the legacy node namespace with un-enveloped traffic, so a
// one-job fleet replays cluster.Run byte for byte (the golden-digest parity
// test pins this). Fleet v1 deliberately excludes fault plans, scale plans,
// and decentralized speculation — those remain single-job features.

// JobSpec describes one job submitted to a Fleet.
type JobSpec struct {
	// Name labels the job (metrics, /clusterz, gateway). Empty defaults to
	// "job<id>"; duplicate names get an "-<id>" suffix.
	Name string
	// Workload is the model + training profile.
	Workload Workload
	// Scheme is this job's synchronization scheme.
	Scheme scheme.Config
	// Workers is this job's cluster size.
	Workers int
	// Servers is how many shared shard slots this job spreads over; zero
	// means min(Workers, 8) capped at the fleet's slot count. Slots are
	// assigned round-robin starting at (id mod fleet slots), so tenants
	// spread instead of piling onto slot 0.
	Servers int
	// Seed drives this job's data order, init, and compute jitter; zero
	// defaults to fleet seed + job id.
	Seed int64
	// Codec selects this job's compression config.
	Codec codec.Config
	// Speeds are per-worker speed factors (nil = homogeneous).
	Speeds []float64
	// SubmitAt delays admission until this virtual time.
	SubmitAt time.Duration
	// MaxInflightPush and ByteBudget are the job's quotas (0 = unlimited).
	MaxInflightPush int
	ByteBudget      int64
	// ConsecutiveBelow is the convergence streak length (0 = 5).
	ConsecutiveBelow int
	// AbortLateFrac and MaxAbortFrac mirror the Config knobs.
	AbortLateFrac float64
	MaxAbortFrac  float64
}

// FleetConfig describes a multi-job run.
type FleetConfig struct {
	// Jobs are the initial submissions (more can arrive via Fleet.Submit or
	// the gateway while the fleet runs).
	Jobs []JobSpec
	// Servers is the shared shard-slot count; zero means the max over the
	// initial jobs' (defaulted) Servers.
	Servers int
	// Seed drives the shared network simulation.
	Seed int64
	// Net is the simulated network (zero = EC2-like default, hiccups scaled
	// to the slowest job's iteration time).
	Net des.NetModel
	// DisableHiccups removes the transient-stall process from the default.
	DisableHiccups bool
	// MaxVirtual bounds the simulated duration. Required.
	MaxVirtual time.Duration
	// TickEvery is the manager control-loop period; zero means the minimum
	// EvalEvery over the initial jobs.
	TickEvery time.Duration
	// MaxConcurrent caps simultaneously running jobs (0 = unlimited).
	MaxConcurrent int
	// KeepTrace retains the full event trace.
	KeepTrace bool
	// Debug receives node logs.
	Debug io.Writer
	// Obs receives fleet telemetry; nil builds an internal instance.
	Obs *obs.Obs
	// OnStart runs after construction, before the simulator: mount gateways,
	// submit extra jobs, start pollers.
	OnStart func(*Fleet)
}

// JobResult is one job's slice of a FleetResult.
type JobResult struct {
	ID         int
	Name       string
	SchemeName string
	State      jobs.State
	Err        string

	Converged    bool
	ConvergeTime time.Duration
	TotalIters   int64
	FinalLoss    float64
	// Loss and IterSeries point at the manager-owned probe series (stable
	// once the run returns).
	Loss       *metrics.Series
	IterSeries *metrics.Series

	// Transfer is this job's bytes on wire (inner kinds, envelope sizes);
	// per-job totals sum exactly to the fleet Transfer total.
	Transfer *metrics.Transfer
	// Codec is this job's codec-layer accounting.
	Codec *codec.Stats
	// Pushes is the job's server-applied push count.
	Pushes int64
	// Aborts is the job's abort-and-restart count.
	Aborts int64
	// ThrottledPushes counts pushes that waited in the quota gate.
	ThrottledPushes int64

	AdmittedAt time.Duration
	FinishedAt time.Duration
}

// FleetResult summarizes a multi-job run.
type FleetResult struct {
	// Jobs is indexed by job ID.
	Jobs []JobResult
	// Elapsed is the total simulated duration.
	Elapsed time.Duration
	// Transfer is the fleet-wide byte accounting from the simulator.
	Transfer *metrics.Transfer
	// Trace is the interleaved event log (nil unless KeepTrace).
	Trace *trace.Collector
	// Obs is the fleet-wide observability summary (sums across jobs).
	Obs *obs.Summary
	// Flight is the fleet flight-recorder dump (admissions, quota trips,
	// retirements, per-job control-plane events, straggler flags).
	Flight obs.FlightDump
	// Ticks is how many manager control ticks ran.
	Ticks int64
	// Routing is the final namespaced fleet routing table (one block per
	// admitted job).
	Routing *core.RoutingTable
}

// fleetJob is the fleet-side construction state hung off jobs.Job.Payload.
type fleetJob struct {
	spec       JobSpec
	slots      []int
	ranges     []ps.Range
	workers    []*worker.Worker
	tenants    []*ps.Server
	sched      *core.Scheduler
	codecStats *codec.Stats
	probeVec   tensor.Vec
}

// Fleet is a constructed multi-job run: submit jobs, then Run it.
type Fleet struct {
	cfg       FleetConfig
	sim       *des.Sim
	mgr       *jobs.Manager
	obs       *obs.Obs
	transfer  *metrics.Transfer
	collector *trace.Collector
	hosts     []*jobs.ServerHost

	mu         sync.Mutex
	names      map[string]bool
	admissions int
	routing    *core.RoutingTable
}

func (c *FleetConfig) applyDefaults() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("cluster: fleet needs at least one job")
	}
	if c.MaxVirtual <= 0 {
		return fmt.Errorf("cluster: fleet MaxVirtual must be positive")
	}
	maxServers, maxIter := 0, time.Duration(0)
	minEval := time.Duration(0)
	for i := range c.Jobs {
		s := &c.Jobs[i]
		if s.Servers == 0 {
			s.Servers = s.Workers
			if s.Servers > 8 {
				s.Servers = 8
			}
		}
		if s.Servers > maxServers {
			maxServers = s.Servers
		}
		if it := s.Workload.IterTime; it > maxIter {
			maxIter = it
		}
		if ev := s.Workload.EvalEvery; ev > 0 && (minEval == 0 || ev < minEval) {
			minEval = ev
		}
	}
	if c.Servers == 0 {
		c.Servers = maxServers
	}
	if c.TickEvery == 0 {
		c.TickEvery = minEval
	}
	if c.TickEvery <= 0 {
		return fmt.Errorf("cluster: fleet TickEvery must be positive")
	}
	zero := des.NetModel{}
	if c.Net == zero {
		c.Net = des.NetModel{
			Latency:     250 * time.Microsecond,
			BytesPerSec: 125e6,
			Jitter:      100 * time.Microsecond,
		}
		if !c.DisableHiccups {
			c.Net.Hiccups = des.Hiccups{
				MeanEvery: 4 * maxIter,
				MinDur:    maxIter / 2,
				MaxDur:    maxIter * 5 / 4,
			}
		}
	}
	return nil
}

// validateJobSpec checks one job: the single-job rules through
// Config.Validate, then what a shared fleet adds.
func validateJobSpec(s *JobSpec, fleet *FleetConfig) error {
	cfg := Config{
		Workload: s.Workload, Scheme: s.Scheme, Workers: s.Workers, Servers: s.Servers,
		Seed: s.Seed, Codec: s.Codec, Speeds: s.Speeds, MaxVirtual: fleet.MaxVirtual,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.Scheme.Decentralized {
		return fmt.Errorf("cluster: fleet jobs cannot use decentralized speculation (single-job feature)")
	}
	if s.Servers < 1 || s.Servers > fleet.Servers {
		return fmt.Errorf("cluster: job wants %d shard slots, fleet has %d", s.Servers, fleet.Servers)
	}
	if s.SubmitAt < 0 || s.MaxInflightPush < 0 || s.ByteBudget < 0 {
		return fmt.Errorf("cluster: job has negative SubmitAt/quota")
	}
	return nil
}

// NewFleet builds the shared substrate (simulator, server hosts, manager)
// and queues the configured jobs.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}

	o := cfg.Obs
	if o == nil {
		o = obs.New(obs.Options{})
	}
	registry := msg.Registry()
	transfer := metrics.NewTransfer(msg.IsControl)
	o.Registry().SetCollector("transfer", func(w io.Writer) {
		transfer.WritePrometheus(w, registry.Name)
	})

	sim, err := des.New(des.Config{
		Seed:     cfg.Seed,
		Net:      cfg.Net,
		Registry: registry,
		Transfer: transfer,
		Metrics:  o.Registry(),
		Debug:    cfg.Debug,
	})
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		cfg:       cfg,
		sim:       sim,
		obs:       o,
		transfer:  transfer,
		collector: trace.NewCollector(),
		hosts:     make([]*jobs.ServerHost, cfg.Servers),
		names:     map[string]bool{},
	}
	o.SetTracer(f.collector)
	for slot := range f.hosts {
		f.hosts[slot] = jobs.NewServerHost(registry)
		if err := sim.AddNode(node.ServerID(slot), f.hosts[slot]); err != nil {
			return nil, err
		}
	}

	f.mgr, err = jobs.NewManager(jobs.ManagerConfig{
		TickEvery:     cfg.TickEvery,
		MaxConcurrent: cfg.MaxConcurrent,
		Now:           sim.Elapsed,
		Epoch:         sim.Now(),
		Schedule:      func(d time.Duration, fn func()) { sim.Schedule(d, fn) },
		Spawn:         f.spawn,
		Halt:          f.halt,
		Cleanup:       f.cleanup,
		Probe:         f.probe,
		OnAllDone:     sim.Stop,
		Obs:           o,
	})
	if err != nil {
		return nil, err
	}

	for i := range cfg.Jobs {
		if _, err := f.Submit(cfg.Jobs[i]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Manager exposes the jobs manager (for gateways and tests).
func (f *Fleet) Manager() *jobs.Manager { return f.mgr }

// Obs exposes the fleet's observability instance.
func (f *Fleet) Obs() *obs.Obs { return f.obs }

// Submit validates and queues one more job; safe before Run and, from other
// goroutines, while the fleet runs (the job is admitted at the next control
// tick). The job is fully constructed under the manager lock before it
// becomes visible to the control loop, so a concurrent tick never observes a
// half-built job.
func (f *Fleet) Submit(spec JobSpec) (int, error) {
	return f.submit(func(int) (JobSpec, error) { return spec, nil })
}

// SubmitRequest resolves a gateway submission (workload by name, scheme as
// the run spec's scheme object) into a JobSpec and queues it. A zero request
// seed defaults to fleet seed + job ID, resolved once before the workload is
// built, so the workload's data order and the job's runtime seed agree and
// seedless submissions still get distinct seeds per job.
func (f *Fleet) SubmitRequest(req jobs.SubmitRequest) (int, error) {
	if req.Workers < 1 {
		return 0, fmt.Errorf("cluster: job needs at least 1 worker")
	}
	return f.submit(func(id int) (JobSpec, error) {
		seed := req.Seed
		if seed == 0 {
			seed = f.cfg.Seed + int64(id)
		}
		wl, err := WorkloadByName(req.Workload, req.Workers, seed)
		if err != nil {
			return JobSpec{}, err
		}
		return JobSpec{
			Name:            req.Name,
			Workload:        wl,
			Scheme:          req.Scheme,
			Workers:         req.Workers,
			Servers:         req.Servers,
			Seed:            seed,
			SubmitAt:        req.SubmitAt(),
			MaxInflightPush: req.MaxInflightPush,
			ByteBudget:      req.ByteBudget,
		}, nil
	})
}

// submit reserves the next job ID and finishes construction under the
// manager lock: build produces the (possibly ID-dependent) spec, which is
// defaulted, validated, and attached to the job before the manager's control
// loop or listings can see it. A build or validation error discards the job.
func (f *Fleet) submit(build func(id int) (JobSpec, error)) (int, error) {
	j := &jobs.Job{Acct: jobs.NewAcct()}
	return f.mgr.SubmitPrepared(j, func(id int) error {
		spec, err := build(id)
		if err != nil {
			return err
		}
		if spec.Servers == 0 {
			spec.Servers = spec.Workers
			if spec.Servers > 8 {
				spec.Servers = 8
			}
			if spec.Servers > f.cfg.Servers {
				spec.Servers = f.cfg.Servers
			}
		}
		if err := validateJobSpec(&spec, &f.cfg); err != nil {
			return err
		}
		if spec.Seed == 0 {
			spec.Seed = f.cfg.Seed + int64(id)
		}

		j.Name = spec.Name
		f.mu.Lock()
		if j.Name == "" {
			j.Name = fmt.Sprintf("job%d", id)
		}
		if f.names[j.Name] {
			j.Name = fmt.Sprintf("%s-%d", j.Name, id)
		}
		f.names[j.Name] = true
		f.mu.Unlock()

		j.SchemeName = spec.Scheme.Name()
		j.Workers = spec.Workers
		j.SubmitAt = spec.SubmitAt
		j.TargetLoss = spec.Workload.TargetLoss
		j.EvalEvery = spec.Workload.EvalEvery
		j.ConsecutiveBelow = spec.ConsecutiveBelow
		j.Quota = jobs.Quota{MaxInflightPush: spec.MaxInflightPush, ByteBudget: spec.ByteBudget}

		cs := codec.NewStats(msg.CodecLabeler(spec.Codec.PushName(), spec.Codec.PullName()))
		cs.Tap(j.Acct.Transfer)
		j.Payload = &fleetJob{
			spec:       spec,
			codecStats: cs,
			probeVec:   tensor.NewVec(spec.Workload.Model.Dim()),
		}
		return nil
	})
}

// spawn builds one admitted job's nodes: tenant shards on the shared slots,
// scoped workers, and a scoped scheduler. Runs on the simulator's event loop
// (manager tick).
func (f *Fleet) spawn(j *jobs.Job) error {
	fj := j.Payload.(*fleetJob)
	spec := fj.spec
	mdl := spec.Workload.Model
	dim := mdl.Dim()

	// Slot assignment: round-robin from (id mod slots) so concurrent jobs
	// spread their primary shards across the fleet. Job 0 always gets the
	// identity mapping (legacy parity).
	ns := f.cfg.Servers
	fj.slots = make([]int, spec.Servers)
	for k := range fj.slots {
		fj.slots[k] = (j.ID + k) % ns
	}
	ranges, err := ps.ShardRanges(dim, spec.Servers)
	if err != nil {
		return err
	}
	fj.ranges = ranges

	initRng := rand.New(rand.NewSource(spec.Seed ^ 0x1217))
	initVec := mdl.Init(initRng)
	newOptimizer := func(n int) (*optimizer.SGD, error) {
		return optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: spec.Workload.Schedule,
			Momentum: spec.Workload.Momentum,
			Clip:     spec.Workload.Clip,
		}, n)
	}
	jv := f.obs.Job(j.Name)

	fj.tenants = make([]*ps.Server, spec.Servers)
	for k, r := range ranges {
		opt, err := newOptimizer(r.Len())
		if err != nil {
			return err
		}
		srv, err := ps.New(ps.Config{
			Range:      r,
			Init:       initVec[r.Lo:r.Hi],
			Optimizer:  opt,
			Obs:        jv.Server(fj.slots[k]),
			DeltaPull:  spec.Codec.UsesDelta(),
			CodecStats: fj.codecStats,
		})
		if err != nil {
			return err
		}
		fj.tenants[k] = srv
		f.hosts[fj.slots[k]].AddTenant(j.ID, srv, j.Acct)
	}

	// Workers address shard k at slot slots[k]: the identity mapping stays
	// on the legacy fixed-shard path; rotated slots use a per-job routing
	// table (job-stamped, epoch 0).
	identity := true
	for k, s := range fj.slots {
		if s != k {
			identity = false
			break
		}
	}
	var jobTable *core.RoutingTable
	if !identity {
		shards := make([]core.ShardRoute, len(ranges))
		for k, r := range ranges {
			shards[k] = core.ShardRoute{Lo: r.Lo, Hi: r.Hi, Server: fj.slots[k], Job: j.ID}
		}
		jobTable = &core.RoutingTable{Epoch: 0, Shards: shards}
	}

	fj.workers = make([]*worker.Worker, spec.Workers)
	for i := 0; i < spec.Workers; i++ {
		speed := 1.0
		if spec.Speeds != nil {
			speed = spec.Speeds[i]
		}
		wcfg := worker.Config{
			Index:  i,
			Shards: ranges,
			Model:  mdl,
			Scheme: spec.Scheme,
			Compute: worker.ComputeModel{
				Base:        spec.Workload.IterTime,
				Speed:       speed,
				JitterSigma: spec.Workload.JitterSigma,
			},
			Tracer:        f.collector,
			Obs:           jv.Worker(i),
			AbortLateFrac: spec.AbortLateFrac,
			NumWorkers:    spec.Workers,
			Codec:         spec.Codec,
			CodecStats:    fj.codecStats,
		}
		if jobTable != nil {
			wcfg.Shards = nil
			wcfg.Routing = jobTable.Clone()
		}
		wk, err := worker.New(wcfg)
		if err != nil {
			return err
		}
		fj.workers[i] = wk
		wrapped := jobs.WrapWorker(j.ID, wk, j.Acct, spec.MaxInflightPush)
		if err := f.sim.Join(jobs.WorkerID(j.ID, i), wrapped); err != nil {
			return err
		}
	}

	maxAbortFrac := spec.MaxAbortFrac
	if maxAbortFrac == 0 {
		maxAbortFrac = 0.125
	}
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers:       spec.Workers,
		ActiveWorkers: spec.Workers,
		Scheme:        spec.Scheme,
		InitialSpan:   spec.Workload.IterTime,
		Tracer:        f.collector,
		Obs:           jv.Scheduler(),
		Tuner: core.TunerConfig{
			MinAbort:      4 * f.cfg.Net.Latency,
			MaxAbort:      time.Duration(maxAbortFrac * float64(spec.Workload.IterTime)),
			MaxCandidates: 512,
		},
	})
	if err != nil {
		return err
	}
	fj.sched = sched
	if err := f.sim.Join(jobs.SchedulerID(j.ID), jobs.WrapScheduler(j.ID, sched, j.Acct)); err != nil {
		return err
	}

	f.recordAdmission(j.ID, ranges, fj.slots)
	return nil
}

// recordAdmission folds the job's namespaced block into the fleet routing
// table (blocks sorted by job ID; epoch counts admissions).
func (f *Fleet) recordAdmission(id int, ranges []ps.Range, slots []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.admissions++
	var shards []core.ShardRoute
	if f.routing != nil {
		shards = append(shards, f.routing.Shards...)
	}
	for k, r := range ranges {
		shards = append(shards, core.ShardRoute{Lo: r.Lo, Hi: r.Hi, Server: slots[k], Job: id})
	}
	sort.SliceStable(shards, func(a, b int) bool { return shards[a].Job < shards[b].Job })
	f.routing = &core.RoutingTable{Epoch: int64(f.admissions), Shards: shards}
}

// Routing returns the current namespaced fleet table (nil before the first
// admission).
func (f *Fleet) Routing() *core.RoutingTable {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.routing.Clone()
}

// halt stops a retired job's nodes. Inject bypasses the network model and
// byte accounting symmetrically (fleet and per-job), so retirement does not
// skew the accounting invariant.
func (f *Fleet) halt(j *jobs.Job) {
	fj := j.Payload.(*fleetJob)
	for i := range fj.workers {
		_ = f.sim.Inject(jobs.SchedulerID(j.ID), jobs.WorkerID(j.ID, i), &msg.Stop{})
	}
	_ = f.sim.Inject(node.ProbeID, jobs.SchedulerID(j.ID), &msg.Stop{})
}

// cleanup unmounts a retired job's tenants (manager janitor, one tick after
// retirement).
func (f *Fleet) cleanup(j *jobs.Job) {
	fj := j.Payload.(*fleetJob)
	for _, slot := range fj.slots {
		f.hosts[slot].RemoveTenant(j.ID)
	}
}

// probe assembles one job's parameter vector from its tenants and evaluates
// its loss.
func (f *Fleet) probe(j *jobs.Job) jobs.ProbeSample {
	fj := j.Payload.(*fleetJob)
	var iters, pushes int64
	for _, wk := range fj.workers {
		iters += wk.IterationsDone()
	}
	for _, t := range fj.tenants {
		p := t.Params()
		r := t.Range()
		if len(p) == r.Len() && r.Len() > 0 {
			copy(fj.probeVec[r.Lo:r.Hi], p)
		}
		_, push := t.Stats()
		pushes += push
	}
	return jobs.ProbeSample{
		Loss:   fj.spec.Workload.Model.EvalLoss(fj.probeVec),
		Iters:  iters,
		Pushes: pushes,
	}
}

// Run executes the fleet to quiescence (every job terminal) or MaxVirtual.
func (f *Fleet) Run() (*FleetResult, error) {
	f.sim.Init()
	f.mgr.Start()
	if f.cfg.OnStart != nil {
		f.cfg.OnStart(f)
	}
	f.sim.RunUntilIdle(f.cfg.MaxVirtual)
	f.mgr.Finalize()

	res := &FleetResult{
		Elapsed:  f.sim.Elapsed(),
		Transfer: f.transfer,
		Ticks:    f.mgr.Ticks(),
		Routing:  f.Routing(),
		Obs:      f.obs.Summary(),
		Flight:   f.obs.FlightDump(),
	}
	if f.cfg.KeepTrace {
		res.Trace = f.collector
	}
	for _, j := range f.mgr.Jobs() {
		jr := JobResult{
			ID:              j.ID,
			Name:            j.Name,
			SchemeName:      j.SchemeName,
			State:           j.State,
			Err:             j.Err,
			Converged:       j.State == jobs.Converged,
			ConvergeTime:    j.ConvergeTime,
			TotalIters:      j.Iters,
			FinalLoss:       j.FinalLoss,
			Loss:            &j.Loss,
			IterSeries:      &j.IterSeries,
			Transfer:        j.Acct.Transfer,
			Pushes:          j.Pushes,
			ThrottledPushes: j.Acct.ThrottledPushes(),
			AdmittedAt:      j.AdmittedAt,
			FinishedAt:      j.FinishedAt,
		}
		if fj, ok := j.Payload.(*fleetJob); ok {
			jr.Codec = fj.codecStats
			for _, wk := range fj.workers {
				if wk != nil {
					jr.Aborts += wk.Aborts()
				}
			}
		}
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}

// RunFleet is the one-shot convenience wrapper.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	return f.Run()
}
