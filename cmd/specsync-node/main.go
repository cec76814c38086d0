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
// follow it. A shard replica is only a warm copy here: nothing promotes it
// (the simulator's fault injector is the one caller of ps.Server.Promote).
// A killed server/<i> serves again only when it is relaunched, from its
// checkpoint if it has one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/ps"
	"specsync/internal/replica"
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
	warning, err := cfg.ValidateTCP()
	if err != nil {
		return err
	}
	if warning != "" {
		fmt.Fprintln(os.Stderr, "specsync-node:", warning)
	}
	cfg = cfg.WithDefaults()
	peers := addresses(cfg, *host, *basePort)
	id, err := resolveID(peers, *idFlag)
	if err != nil {
		return err
	}
	p, err := boot(cfg, id, *generation, *checkpointDir)
	if err != nil {
		return err
	}
	if p.restored != "" {
		fmt.Printf("%s: restored %s from %s\n", id, p.restored, p.ckptPath)
	}

	hcfg := p.nodes.HostConfig()
	hcfg.ID, hcfg.Handler, hcfg.ListenAddr, hcfg.Debug = id, p.handler, peers[id], *debug
	delete(peers, id)
	hcfg.Peers = peers
	h, err := live.NewTCPHost(hcfg)
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Printf("%s listening on %s (%d workers, %d servers, scheme %s, workload %s)\n",
		id, hcfg.ListenAddr, cfg.Workers, cfg.Servers, cfg.Scheme.Name(), cfg.Workload.Name)
	if shard, _ := node.ReplicaOf(id); shard >= 0 {
		fmt.Printf("%s: warm copy of %s; nothing promotes it on this runtime, so a killed %s serves again only when relaunched\n",
			id, node.ServerID(shard), node.ServerID(shard))
	}

	health := healthFunc(id, p.handler)
	if *metricsAddr != "" {
		cfgHTTP := obs.HTTPConfig{
			Registry: p.o.Registry(),
			Health:   health,
			Flight:   p.o.FlightDump,
			Pprof:    *pprofOn,
		}
		if id == node.Scheduler || node.StandbyIndex(id) >= 1 {
			cfgHTTP.Cluster = p.o.ClusterSnapshot
			cfgHTTP.Stragglers = p.o.StragglerSnapshot
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
	if p.ckptPath != "" && cfg.CheckpointEvery > 0 {
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
			return p.stopped()
		case <-ckptTick:
			var snap io.WriterTo
			var what string
			h.Do(func() { snap, what = p.snapshot() })
			if err := writeDurable(p.ckptPath, snap); err != nil {
				fmt.Fprintf(os.Stderr, "%s: checkpoint failed: %v\n", id, err)
			} else if *debug {
				fmt.Printf("%s: checkpointed %s\n", id, what)
			}
		case <-ticker.C:
			st := health()
			line, _ := json.Marshal(st)
			fmt.Printf("%s: %s\n", id, line)
			if st.Status == "stopped" {
				fmt.Printf("%s: reached max iterations; exiting\n", id)
				return p.stopped()
			}
		}
	}
}

// process is what one specsync-node process serves: its node's handler and
// the observability instance behind -metrics-addr, plus the node's
// checkpoint file and what boot restored from it.
type process struct {
	o        *obs.Obs
	nodes    *cluster.Nodes
	handler  node.Handler
	ckptPath string // "" when the node keeps no checkpoint
	snapshot func() (io.WriterTo, string)
	restored string // what the checkpoint held; "" when nothing was restored
}

// boot builds the node id plays in cfg, a scheduler as incarnation gen, and
// restores its checkpoint from dir if there is one: restore runs before the
// host serves. It counts in the fault ledger what the process can see of its
// own recovery.
func boot(cfg cluster.Config, id node.ID, gen int64, dir string) (*process, error) {
	// One observability instance per process: the node's handles feed the
	// registry -metrics-addr exposes.
	o := obs.New(obs.Options{})
	cfg.Obs = o
	nodes, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	var handler node.Handler
	if id == node.Scheduler {
		handler, err = nodes.Scheduler(gen)
	} else {
		handler, err = nodes.Handler(id)
	}
	if err != nil {
		return nil, err
	}

	// Durable state — a shard's parameters, the scheduler's snapshot, a
	// worker's codec residual under a lossy push codec — is checkpointed
	// when the role sets snapshot: it runs on the node's event loop (h.Do),
	// so it never races with applies; restore runs before the host serves.
	var (
		ckptName string
		snapshot func() (io.WriterTo, string)
		restore  func(io.Reader) (string, error)
	)
	switch n := handler.(type) {
	case *ps.Server:
		if node.ServerIndex(id) < 0 {
			break // a shard replica follows its primary instead
		}
		ckptName = fmt.Sprintf("server-%d.ckpt", node.ServerIndex(id))
		snapshot = func() (io.WriterTo, string) {
			snap := n.Snapshot()
			return snap, fmt.Sprintf("version %d", snap.Version)
		}
		restore = func(r io.Reader) (string, error) {
			snap, err := ps.ReadSnapshot(r)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("checkpoint version %d", snap.Version), n.Restore(snap)
		}
	case *worker.Worker:
		// Lossy push codecs carry an error-feedback residual; checkpoint it so
		// a restarted worker does not silently drop pending gradient mass.
		if n.CodecState() != nil {
			ckptName = fmt.Sprintf("worker-%d.codec.ckpt", node.WorkerIndex(id))
			snapshot = func() (io.WriterTo, string) {
				data := n.CodecState().Snapshot()
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
				return "codec residual state", n.RestoreCodecState(st)
			}
		}
	case *core.Scheduler, *replica.Leader:
		sched, ok := n.(*core.Scheduler)
		if !ok {
			sched = n.(*replica.Leader).Sched()
		}
		ckptName = "scheduler.ckpt"
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
	}

	p := &process{o: o, nodes: nodes, handler: handler, snapshot: snapshot}
	clean := false // the predecessor left the clean-exit mark
	if dir != "" && snapshot != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p.ckptPath = filepath.Join(dir, ckptName)
		if p.restored, err = readDurable(p.ckptPath, restore); err != nil {
			return nil, err
		}
		clean = os.Remove(p.ckptPath+cleanSuffix) == nil
	}

	// A process that restored a checkpoint, or a scheduler started at a
	// generation above 0, replaces an earlier process of its node: it counts
	// that node's restart, the restore, and a crash unless the predecessor
	// exited cleanly. The scheduler incarnation counts its own restart as
	// well (Scheduler.Init), as it does in the simulator. A first start counts
	// nothing and registers no ledger family.
	sched := id == node.Scheduler
	if p.restored != "" || sched && gen > 0 {
		f := o.Faults()
		if !clean {
			f.Crash(sched)
		}
		f.Restart()
		if p.restored != "" {
			f.Restore(sched)
		}
	}
	return p, nil
}

// cleanSuffix names, beside a node's checkpoint, the mark a process leaves
// when it exits on a signal or at the end of its run: its successor then
// counts a restart but no crash.
const cleanSuffix = ".clean"

// stopped leaves the clean-exit mark, if the node keeps a checkpoint.
func (p *process) stopped() error {
	if p.ckptPath == "" {
		return nil
	}
	return os.WriteFile(p.ckptPath+cleanSuffix, nil, 0o644)
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
			// A standalone scheduler process serves unopposed: it is the
			// leader by definition, and its generation doubles as the term.
			h := serving(base(), n)
			h.Role, h.Term = "leader", n.Generation()
			return h
		}
	case *replica.Leader:
		return func() obs.Health {
			h := serving(base(), n.Sched())
			h.Role, h.Term = n.Role().String(), n.Term()
			return h
		}
	case *replica.Standby:
		return func() obs.Health {
			h := base()
			if s := n.Sched(); s != nil {
				h = serving(h, s) // elected: this incarnation now serves the cluster
			}
			h.Role, h.Term = n.Role().String(), n.Term()
			return h
		}
	default:
		return base
	}
}

// serving adds the view of the scheduler s this node serves the cluster
// with.
func serving(h obs.Health, s *core.Scheduler) obs.Health {
	h.Epoch, h.MembershipEpoch, h.Generation, h.Leader = int64(s.Epoch()), s.MembershipEpoch(), s.Generation(), h.Node
	return h
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
