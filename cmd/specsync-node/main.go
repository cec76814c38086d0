// Command specsync-node runs one SpecSync cluster node (server shard,
// worker, scheduler, standby scheduler or shard replica) as a standalone
// process over TCP — the deployment shape of the paper's MXNet
// implementation. Every process loads the same run spec, from which it
// derives the shard layout and the peer address book, and -id names the
// node it plays.
//
// A 2-worker cluster on one machine (each in its own terminal):
//
//	specsync-node -spec examples/specs/live-tcp.json -id server/0
//	specsync-node -spec examples/specs/live-tcp.json -id worker/0
//	specsync-node -spec examples/specs/live-tcp.json -id worker/1
//	specsync-node -spec examples/specs/live-tcp.json -id scheduler
//
// Ports run consecutively from -base-port: servers, workers, the
// scheduler, the spec's standby schedulers ("scheduler/1", ...), then its
// shard replicas, shard-major ("replica/0/1", ...). The scheduler
// broadcasts Start once it boots, so start it after the servers and workers
// are listening (or restart stragglers — workers also begin on the first
// Start they see).
//
// High availability: a spec with replication adds standby and replica
// processes. The scheduler ships its state to the standbys and each server
// forwards acknowledged pushes to its replicas; if the scheduler process
// dies, a standby elects itself, announces the new term, and the workers
// follow it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/replica"
	"specsync/internal/stragglers"
	"specsync/internal/worker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-node:", err)
		os.Exit(1)
	}
}

// addresses is the spec's address book: every node of its topology on
// consecutive ports from basePort, in the order servers, workers, the
// scheduler, standby schedulers, shard replicas (shard-major).
func addresses(cfg cluster.Config, host string, basePort int) map[node.ID]string {
	var all []node.ID
	for i := 0; i < cfg.Servers; i++ {
		all = append(all, node.ServerID(i))
	}
	for i := 0; i < cfg.Workers; i++ {
		all = append(all, node.WorkerID(i))
	}
	all = append(all, node.Scheduler)
	for i := 1; i <= cfg.Replication.StandbySchedulers; i++ {
		all = append(all, node.StandbyID(i))
	}
	for s := 0; s < cfg.Servers; s++ {
		for r := 1; r <= cfg.Replication.Replicas; r++ {
			all = append(all, node.ReplicaID(s, r))
		}
	}
	peers := make(map[node.ID]string, len(all))
	for i, id := range all {
		peers[id] = fmt.Sprintf("%s:%d", host, basePort+i)
	}
	return peers
}

// resolveID checks that s names a node of the address book.
func resolveID(peers map[node.ID]string, s string) (node.ID, error) {
	id := node.ID(s)
	if err := node.Validate(id); err != nil || id == node.ProbeID {
		return "", fmt.Errorf("-id %q: want server/<i>, worker/<i>, scheduler, scheduler/<i> or replica/<shard>/<r>", s)
	}
	if _, ok := peers[id]; !ok {
		return "", fmt.Errorf("-id %s is not a node of the spec's topology", id)
	}
	return id, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-node", flag.ContinueOnError)
	var (
		specPath      = fs.String("spec", "", "run spec (JSON, see examples/specs); every process of the cluster loads the same one")
		idFlag        = fs.String("id", "", "the node this process plays: server/<i>, worker/<i>, scheduler, scheduler/<i> (standby) or replica/<shard>/<r>")
		host          = fs.String("host", "127.0.0.1", "host all nodes share")
		basePort      = fs.Int("base-port", 7000, "first port of the contiguous port block")
		debug         = fs.Bool("debug", false, "verbose node logging")
		metricsAddr   = fs.String("metrics-addr", "", "serve /metrics, /healthz, /clusterz, /stragglerz and /debugz on this address (\":0\" picks a port)")
		pprofOn       = fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")
		checkpointDir = fs.String("checkpoint-dir", "", "server, scheduler and lossy-codec worker: checkpoint directory, restored on boot; the spec's checkpoint_every sets the period")
		generation    = fs.Int64("generation", 0, "scheduler: incarnation number; >0 means this process replaces a crashed scheduler and asks workers for state")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	cfg, err := cluster.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Faults != nil || cfg.Churn != nil || !cfg.Scale.Empty() || cfg.Mitigation != stragglers.MitigateNone || cfg.Hetero {
		return fmt.Errorf("fault, churn and scale plans, straggler mitigation and heterogeneous speeds run only on the simulator (specsync)")
	}
	cfg = cfg.WithDefaults()
	peers := addresses(cfg, *host, *basePort)
	id, err := resolveID(peers, *idFlag)
	if err != nil {
		return err
	}
	wl, sc := cfg.Workload, cfg.Scheme
	if cfg.Stragglers.HasCongest() {
		// The TCP transport has no bandwidth model to scale; congest episodes
		// only act under the simulator, as a link penalty.
		fmt.Fprintln(os.Stderr, "specsync-node: warning: congest episodes in the plan are ignored on the TCP transport")
	}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), cfg.Servers)
	if err != nil {
		return err
	}

	// One observability instance per process; role-specific handles feed the
	// same registry that -metrics-addr exposes. Outbound wire bytes are
	// accounted per message kind with wall-clock throughput windows, and the
	// codec stats read per-{kind,codec} bytes-on-wire series from the same
	// ledger.
	o := obs.New(obs.Options{})
	transfer := metrics.NewTransfer(msg.IsControl)
	o.Registry().SetCollector("transfer", func(w io.Writer) {
		transfer.WritePrometheus(w, msg.Registry().Name)
	})
	codecStats := codec.NewStats(msg.CodecLabeler(cfg.Codec.PushName(), cfg.Codec.PullName()))
	o.Registry().SetCollector("codec", func(w io.Writer) {
		codecStats.WritePrometheus(w, msg.Registry().Name)
	})

	newShard := func(i int, replica bool) (*ps.Server, error) {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip,
		}, ranges[i].Len())
		if err != nil {
			return nil, err
		}
		initVec := wl.Model.Init(rand.New(rand.NewSource(cfg.Seed ^ 0x1217)))
		return ps.New(ps.Config{
			Range:      ranges[i],
			Init:       initVec[ranges[i].Lo:ranges[i].Hi],
			Optimizer:  opt,
			Replica:    replica,
			Obs:        o.Server(i),
			DeltaPull:  cfg.Codec.UsesDelta(),
			CodecStats: codecStats,
		})
	}
	newScheduler := func(gen int64) (*core.Scheduler, error) {
		if !cfg.Stragglers.Empty() {
			// Ground truth for /stragglerz detector scoring: precision and
			// recall are measured against the plan's scripted victims.
			o.Scheduler().SetStragglerTruth(cfg.Stragglers.Targets())
		}
		return core.NewScheduler(core.SchedulerConfig{
			Workers:         cfg.Workers,
			Scheme:          sc,
			InitialSpan:     wl.IterTime,
			LivenessTimeout: cfg.LivenessTimeout,
			Generation:      gen,
			BeaconEvery:     cfg.BeaconEvery,
			ReportSpans:     cfg.ReportSpans(),
			Obs:             o.Scheduler(),
		})
	}

	// Durable state — a shard's parameters, the scheduler's snapshot, a
	// worker's codec residual under a lossy push codec — is checkpointed
	// when the role sets snapshot: it runs on the node's event loop (h.Do),
	// so it never races with applies; restore runs before the host serves.
	var (
		handler  node.Handler
		ckptName string
		snapshot func() (io.WriterTo, string)
		restore  func(io.Reader) (string, error)
	)
	switch {
	case node.ServerIndex(id) >= 0:
		i := node.ServerIndex(id)
		shard, err := newShard(i, false)
		if err != nil {
			return err
		}
		var backups []node.ID
		for r := 1; r <= cfg.Replication.Replicas; r++ {
			backups = append(backups, node.ReplicaID(i, r))
		}
		shard.SetBackups(backups)
		handler, ckptName = shard, fmt.Sprintf("server-%d.ckpt", i)
		snapshot = func() (io.WriterTo, string) {
			snap := shard.Snapshot()
			return snap, fmt.Sprintf("version %d", snap.Version)
		}
		restore = func(r io.Reader) (string, error) {
			snap, err := ps.ReadSnapshot(r)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("checkpoint version %d", snap.Version), shard.Restore(snap)
		}
	case node.WorkerIndex(id) >= 0:
		i := node.WorkerIndex(id)
		// Each worker plays only its own row of the plan's speed scripts;
		// windows are measured from Init, so co-started processes line up.
		scripts, err := cfg.Stragglers.Scripts(cfg.Workers)
		if err != nil {
			return err
		}
		wkr, err := worker.New(worker.Config{
			Index:            i,
			Shards:           ranges,
			Model:            wl.Model,
			Scheme:           sc,
			Compute:          worker.ComputeModel{Base: wl.IterTime, Speed: 1, JitterSigma: wl.JitterSigma},
			Script:           scripts[i],
			MaxIters:         cfg.MaxItersPerWorker,
			NumWorkers:       cfg.Workers,
			HeartbeatEvery:   cfg.HeartbeatEvery,
			RetryAfter:       cfg.RetryAfter,
			SchedulerTimeout: cfg.SchedulerTimeout,
			Codec:            cfg.Codec,
			CodecStats:       codecStats,
			ReportSpans:      cfg.ReportSpans(),
			Obs:              o.Worker(i),
		})
		if err != nil {
			return err
		}
		handler = wkr
		// Lossy push codecs carry an error-feedback residual; checkpoint it so
		// a restarted worker does not silently drop pending gradient mass.
		if wkr.CodecState() != nil {
			ckptName = fmt.Sprintf("worker-%d.codec.ckpt", i)
			snapshot = func() (io.WriterTo, string) {
				data := wkr.CodecState().Snapshot()
				return bytes.NewReader(data), fmt.Sprintf("codec residuals (%d bytes)", len(data))
			}
			restore = func(r io.Reader) (string, error) {
				data, err := io.ReadAll(r)
				if err != nil {
					return "", err
				}
				st, err := codec.RestoreState(data)
				if err != nil {
					return "", err
				}
				return "codec residual state", wkr.RestoreCodecState(st)
			}
		}
	case id == node.Scheduler:
		sched, err := newScheduler(*generation)
		if err != nil {
			return err
		}
		handler, ckptName = sched, "scheduler.ckpt"
		snapshot = func() (io.WriterTo, string) {
			snap := sched.Snapshot()
			return snap, fmt.Sprintf("epoch %d", snap.Epoch)
		}
		restore = func(r io.Reader) (string, error) {
			snap, err := core.ReadSchedulerSnapshot(r)
			if err != nil {
				return "", err
			}
			// The generation in the file is the writer's; the rebuilt
			// scheduler keeps its own -generation.
			return fmt.Sprintf("checkpoint (written by generation %d)", snap.Generation), sched.Restore(snap)
		}
		if n := cfg.Replication.StandbySchedulers; n > 0 {
			if handler, err = replica.NewLeader(replica.LeaderConfig{
				Sched:          sched,
				Standbys:       n,
				ReplicateEvery: cfg.Replication.ReplicateEvery,
				Term:           *generation,
				Obs:            o,
			}); err != nil {
				return err
			}
		}
	case node.StandbyIndex(id) >= 1:
		if handler, err = replica.NewStandby(replica.StandbyConfig{
			Index:           node.StandbyIndex(id),
			Standbys:        cfg.Replication.StandbySchedulers,
			Workers:         cfg.Workers,
			ElectionTimeout: cfg.Replication.ElectionTimeout,
			ReplicateEvery:  cfg.Replication.ReplicateEvery,
			MakeScheduler:   newScheduler,
			Obs:             o,
		}); err != nil {
			return err
		}
	default: // a shard replica
		shard, _ := node.ReplicaOf(id)
		if handler, err = newShard(shard, true); err != nil {
			return err
		}
	}

	var ckptPath string
	if *checkpointDir != "" && snapshot != nil {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return err
		}
		ckptPath = filepath.Join(*checkpointDir, ckptName)
		what, err := readDurable(ckptPath, restore)
		if err != nil {
			return err
		}
		if what != "" {
			fmt.Printf("%s: restored %s from %s\n", id, what, ckptPath)
		}
	}

	listen := peers[id]
	delete(peers, id)
	h, err := live.NewTCPHost(live.TCPHostConfig{
		ID:         id,
		Handler:    handler,
		ListenAddr: listen,
		Peers:      peers,
		Registry:   msg.Registry(),
		Seed:       cfg.Seed,
		Transfer:   codecStats.Tap(transfer),
		Metrics:    o.Registry(),
		Debug:      *debug,
	})
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Printf("%s listening on %s (%d workers, %d servers, scheme %s, workload %s)\n",
		id, listen, cfg.Workers, cfg.Servers, sc.Name(), wl.Name)

	if *metricsAddr != "" {
		cfgHTTP := obs.HTTPConfig{
			Registry: o.Registry(),
			Health:   healthFunc(id, handler),
			Flight:   o.FlightDump,
			Pprof:    *pprofOn,
		}
		switch handler.(type) {
		case *core.Scheduler, *replica.Leader, *replica.Standby:
			cfgHTTP.Cluster = o.ClusterSnapshot
			cfgHTTP.Stragglers = o.StragglerSnapshot
		}
		srv, maddr, err := obs.Serve(*metricsAddr, obs.NewHandler(cfgHTTP))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("%s metrics on http://%s/metrics\n", id, maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var ckptTick <-chan time.Time
	if ckptPath != "" && cfg.CheckpointEvery > 0 {
		ct := time.NewTicker(cfg.CheckpointEvery)
		defer ct.Stop()
		ckptTick = ct.C
	}

	// Periodic status for interactive runs.
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return nil
		case <-ckptTick:
			var snap io.WriterTo
			var what string
			h.Do(func() { snap, what = snapshot() })
			if err := writeDurable(ckptPath, snap); err != nil {
				fmt.Fprintf(os.Stderr, "%s: checkpoint failed: %v\n", id, err)
			} else if *debug {
				fmt.Printf("%s: checkpointed %s\n", id, what)
			}
		case <-ticker.C:
			switch n := handler.(type) {
			case *worker.Worker:
				fmt.Printf("%s: %d iterations, %d aborts\n", id, n.IterationsDone(), n.Aborts())
				if n.Stopped() {
					fmt.Printf("%s: reached max iterations; exiting\n", id)
					return nil
				}
			case *ps.Server:
				pulls, pushes := n.Stats()
				fmt.Printf("%s: version %d (%d pulls, %d pushes)\n", id, n.Version(), pulls, pushes)
			case *core.Scheduler:
				enabled, abortTime, _ := n.Hyperparameters()
				fmt.Printf("%s: epoch %d, %d resyncs, spec=%v window=%v\n",
					id, n.Epoch(), n.ReSyncsSent(), enabled, abortTime.Round(time.Millisecond))
			case *replica.Leader:
				fmt.Printf("%s: leader term %d, epoch %d, %d snapshots shipped\n",
					id, n.Term(), n.Sched().Epoch(), n.Shipped())
			case *replica.Standby:
				if s := n.Sched(); s != nil {
					fmt.Printf("%s: %s term %d, epoch %d, %d snapshots shipped\n",
						id, n.Role(), n.Term(), s.Epoch(), n.Shipped())
				} else {
					fmt.Printf("%s: %s term %d, awaiting leader snapshots\n", id, n.Role(), n.Term())
				}
			}
		}
	}
}

// healthFunc builds the role-appropriate /healthz payload. All fields it
// reads are atomics on the handlers, safe from the HTTP goroutine. Uptime is
// measured from process setup.
func healthFunc(id node.ID, handler node.Handler) func() obs.Health {
	name := string(id)
	start := time.Now()
	base := func() obs.Health {
		return obs.Health{
			Status:        "ok",
			Node:          name,
			UptimeSeconds: time.Since(start).Seconds(),
		}
	}
	switch n := handler.(type) {
	case *worker.Worker:
		return func() obs.Health {
			h := base()
			h.Iterations = n.IterationsDone()
			if n.Stopped() {
				h.Status = "stopped"
			}
			return h
		}
	case *ps.Server:
		return func() obs.Health {
			h := base()
			h.Version = n.Version()
			return h
		}
	case *core.Scheduler:
		return func() obs.Health {
			h := base()
			h.Epoch = int64(n.Epoch())
			h.MembershipEpoch = n.MembershipEpoch()
			h.Generation = n.Generation()
			// A standalone scheduler process serves unopposed: it is the
			// leader by definition, and its generation doubles as the term.
			h.Role, h.Term, h.Leader = "leader", n.Generation(), name
			return h
		}
	case *replica.Leader:
		return func() obs.Health {
			h := base()
			s := n.Sched()
			h.Epoch = int64(s.Epoch())
			h.MembershipEpoch = s.MembershipEpoch()
			h.Generation = s.Generation()
			h.Role, h.Term, h.Leader = n.Role().String(), n.Term(), name
			return h
		}
	case *replica.Standby:
		return func() obs.Health {
			h := base()
			h.Role, h.Term = n.Role().String(), n.Term()
			if s := n.Sched(); s != nil {
				// Elected: this incarnation now serves the cluster.
				h.Epoch = int64(s.Epoch())
				h.MembershipEpoch = s.MembershipEpoch()
				h.Generation = s.Generation()
				h.Leader = name
			}
			return h
		}
	default:
		return base
	}
}

// writeDurable writes w to path so that a crash at any point leaves either
// the previous file or the new one, whole: a temp file in the same
// directory, fsync, rename, then an fsync of the directory so the rename
// itself survives.
func writeDurable(path string, w io.WriterTo) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	_, err = w.WriteTo(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// readDurable hands the file at path to restore and returns what it
// restored; a missing file restores nothing and is no error.
func readDurable(path string, restore func(io.Reader) (string, error)) (string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	defer f.Close()
	what, err := restore(f)
	if err != nil {
		return "", fmt.Errorf("reading %s: %w", path, err)
	}
	return what, nil
}
