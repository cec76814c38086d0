package faults

import (
	"fmt"
	"time"

	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/ps"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// SimOptions wires a plan into one simulation.
type SimOptions struct {
	// Plan is the fault schedule. Required.
	Plan *Plan
	// NumWorkers / NumServers bound the plan's node indices.
	NumWorkers, NumServers int
	// Tracer, if non-nil, records crash/recover events.
	Tracer trace.Tracer
	// Faults, if non-nil, is the run's fault ledger: crashes, restarts,
	// checkpoints, restores, lost pushes, promotions and message faults.
	Faults *obs.FaultObs
	// NewWorker builds a fresh worker handler for a restart (same config,
	// blank state — the training state died with the old incarnation).
	// Required when the plan restarts a worker.
	NewWorker func(i int) (node.Handler, error)
	// NewServer builds a fresh parameter-server shard for a restart.
	// Required when the plan restarts a server.
	NewServer func(shard int) (*ps.Server, error)
	// NewScheduler builds a fresh scheduler incarnation for a restart; gen
	// is the incarnation number (1 for the first restart) and must reach the
	// new scheduler's config so its Init announces itself with a
	// SchedulerHello. Required when the plan restarts the scheduler.
	NewScheduler func(gen int64) (*core.Scheduler, error)
	// Server returns the shard's current server (for checkpointing).
	// Required when CheckpointEvery > 0.
	Server func(shard int) *ps.Server
	// Scheduler returns the current scheduler (for checkpointing); nil skips
	// scheduler checkpoints, in which case a restarted scheduler rebuilds
	// entirely from worker StateReports.
	Scheduler func() *core.Scheduler
	// OnWorkerRestart / OnServerRestart / OnSchedulerRestart let the harness
	// swap its references to the replaced node (result accounting reads
	// counters off them).
	OnWorkerRestart    func(i int, h node.Handler)
	OnServerRestart    func(shard int, srv *ps.Server)
	OnSchedulerRestart func(s *core.Scheduler)
	// CheckpointEvery snapshots every live server shard on this period;
	// restarts restore the most recent snapshot. Zero disables
	// checkpointing — restarted shards come back at their initial values.
	CheckpointEvery time.Duration

	// Replicas is the number of backup replicas per shard (R). When
	// positive, a crashed server recovers by promoting its next surviving
	// backup — after waiting for the in-flight replication stream to drain,
	// so no acknowledged push is lost — instead of restoring a checkpoint.
	// The checkpoint path remains the fallback once a shard's backups are
	// exhausted by repeated crashes.
	Replicas int
	// ReplicaServer returns the live backup server for (shard, r), r being
	// the 1-based replica slot. Required when Replicas > 0 and the plan
	// crashes a server (as is the Server accessor, which pins the version
	// the promotion must catch up to).
	ReplicaServer func(shard, r int) *ps.Server
	// OnPromote lets the harness swap its shard reference to the promoted
	// backup and record the failover (flight events, result accounting).
	// OnServerRestart also fires for promotions, with the promoted server.
	OnPromote func(shard int, srv *ps.Server)
	// Standbys is the number of standby scheduler incarnations. When
	// positive, a crashed scheduler is not restarted by the injector — the
	// standbys detect the silence and elect a successor on their own, so
	// the injector only counts the crash and ignores the event's
	// RestartAfter.
	Standbys int
}

// catchUpPoll is the virtual-time tick on which a promotion re-checks
// whether the backup has drained the dead primary's in-flight replication
// stream. Deterministic under the DES (plain virtual delay, no randomness).
const catchUpPoll = 2 * time.Millisecond

// SimInjector executes a plan against a des.Sim in virtual time.
type SimInjector struct {
	sim  *des.Sim
	opts SimOptions
	// snaps holds the latest in-memory checkpoint per shard; schedSnap is
	// the scheduler's, schedGen the incarnation counter.
	snaps     map[int]ps.Snapshot
	schedSnap *core.SchedulerSnapshot
	schedGen  int64
	// promoted counts backups already consumed per shard; crashVersion pins
	// each crashed shard's acknowledged version — the catch-up target for a
	// promotion and the loss baseline for a checkpoint restore.
	promoted     map[int]int
	crashVersion map[int]int64
	errs         []error
}

// AttachSim validates the plan against the cluster shape, installs the
// message-fault hook, and schedules every crash/restart and checkpoint tick.
// Call before running the simulation.
func AttachSim(sim *des.Sim, opts SimOptions) (*SimInjector, error) {
	if opts.Plan == nil {
		return nil, fmt.Errorf("faults: nil plan")
	}
	if err := opts.Plan.Validate(); err != nil {
		return nil, err
	}
	for i, ev := range opts.Plan.Events {
		switch ev.Kind {
		case KindCrashWorker:
			if ev.Node >= opts.NumWorkers {
				return nil, fmt.Errorf("faults: event %d: worker %d out of range (m=%d)", i, ev.Node, opts.NumWorkers)
			}
			if ev.RestartAfter > 0 && opts.NewWorker == nil {
				return nil, fmt.Errorf("faults: event %d restarts a worker but NewWorker is nil", i)
			}
		case KindCrashServer:
			if ev.Node >= opts.NumServers {
				return nil, fmt.Errorf("faults: event %d: server %d out of range (n=%d)", i, ev.Node, opts.NumServers)
			}
			if ev.RestartAfter > 0 && opts.NewServer == nil && opts.Replicas == 0 {
				return nil, fmt.Errorf("faults: event %d restarts a server but NewServer is nil", i)
			}
			if opts.Replicas > 0 && (opts.ReplicaServer == nil || opts.Server == nil) {
				return nil, fmt.Errorf("faults: event %d: Replicas=%d needs the ReplicaServer and Server accessors", i, opts.Replicas)
			}
		case KindCrashScheduler:
			if ev.RestartAfter > 0 && opts.NewScheduler == nil && opts.Standbys == 0 {
				return nil, fmt.Errorf("faults: event %d restarts the scheduler but NewScheduler is nil", i)
			}
		}
	}
	if opts.CheckpointEvery > 0 && opts.Server == nil {
		return nil, fmt.Errorf("faults: CheckpointEvery set but Server accessor is nil")
	}

	inj := &SimInjector{
		sim: sim, opts: opts,
		snaps:        make(map[int]ps.Snapshot),
		promoted:     make(map[int]int),
		crashVersion: make(map[int]int64),
	}

	filter := NewFilter(opts.Plan, opts.Faults)
	if !filter.Empty() {
		start := sim.Now()
		sim.SetFault(func(from, to node.ID, _ wire.Kind, at time.Time) des.FaultAction {
			return filter.Action(from, to, at.Sub(start))
		})
	}

	for _, ev := range opts.Plan.Crashes() {
		ev := ev
		sim.Schedule(ev.At, func() { inj.crash(ev) })
	}
	if opts.CheckpointEvery > 0 {
		inj.armCheckpoint()
	}
	return inj, nil
}

func (inj *SimInjector) crash(ev Event) {
	var id node.ID
	traceWorker := ev.Node
	switch ev.Kind {
	case KindCrashWorker:
		id = node.WorkerID(ev.Node)
	case KindCrashScheduler:
		id = node.Scheduler
		traceWorker = trace.SchedulerNode
	default:
		id = node.ServerID(ev.Node)
		traceWorker = -(ev.Node + 1)
	}
	if inj.sim.Down(id) {
		// Overlapping crash events on one node (easy to generate for the
		// single scheduler): the earlier crash already holds it down, so
		// this one — and its restart — is a no-op.
		return
	}
	if ev.Kind == KindCrashServer && inj.opts.Server != nil {
		// Pin the acknowledged version at the instant of death: a promotion
		// must not serve until its backup has applied this much, and a
		// checkpoint restore that comes back below it lost pushes.
		if srv := inj.opts.Server(ev.Node); srv != nil {
			inj.crashVersion[ev.Node] = srv.Version()
		}
	}
	if err := inj.sim.Crash(id); err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	inj.opts.Faults.Crash(ev.Kind == KindCrashScheduler)
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.sim.Now(), Worker: traceWorker, Kind: trace.KindCrash})
	}
	if ev.Kind == KindCrashScheduler && inj.opts.Standbys > 0 {
		// The standbys' election timers take it from here; injecting a
		// restarted incarnation at the old node ID would fork the control
		// plane into two live schedulers.
		return
	}
	if ev.RestartAfter > 0 {
		inj.sim.Schedule(ev.RestartAfter, func() { inj.restart(ev, id, traceWorker) })
	}
}

func (inj *SimInjector) restart(ev Event, id node.ID, traceWorker int) {
	if ev.Kind == KindCrashScheduler {
		inj.restartScheduler()
		return
	}
	var h node.Handler
	restored := int64(0)
	if ev.Kind == KindCrashWorker {
		wk, err := inj.opts.NewWorker(ev.Node)
		if err != nil {
			inj.errs = append(inj.errs, err)
			return
		}
		h = wk
	} else {
		if inj.opts.Replicas > 0 && inj.promoted[ev.Node] < inj.opts.Replicas {
			// A surviving backup holds every acknowledged push; promote it
			// instead of rolling back to a checkpoint.
			inj.promoteReplica(ev.Node, id, traceWorker)
			return
		}
		if inj.opts.NewServer == nil {
			inj.errs = append(inj.errs, fmt.Errorf("faults: shard %d exhausted its backups and NewServer is nil", ev.Node))
			return
		}
		srv, err := inj.opts.NewServer(ev.Node)
		if err != nil {
			inj.errs = append(inj.errs, err)
			return
		}
		if snap, ok := inj.snaps[ev.Node]; ok {
			if err := srv.Restore(snap); err != nil {
				inj.errs = append(inj.errs, err)
				return
			}
			inj.opts.Faults.Restore(false)
			restored = snap.Version
		}
		// Everything applied after the last checkpoint died with the node.
		if cv := inj.crashVersion[ev.Node]; cv > restored {
			inj.opts.Faults.LostPushes(cv - restored)
		}
		h = srv
		if inj.opts.OnServerRestart != nil {
			inj.opts.OnServerRestart(ev.Node, srv)
		}
	}
	if err := inj.sim.Restart(id, h); err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	inj.opts.Faults.Restart()
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.sim.Now(), Worker: traceWorker, Kind: trace.KindRecover, Value: restored})
	}
	if ev.Kind == KindCrashWorker {
		if inj.opts.OnWorkerRestart != nil {
			inj.opts.OnWorkerRestart(ev.Node, h)
		}
		// The scheduler only starts workers at Init; a restarted worker
		// needs its Start re-issued to re-enter the training loop.
		if err := inj.sim.Inject(node.Scheduler, id, &msg.Start{}); err != nil {
			inj.errs = append(inj.errs, err)
		}
	}
}

// promoteReplica recovers a crashed shard from its next surviving backup.
// The backup may still be draining ReplApply messages the dead primary sent
// before crashing (in-flight sends deliver; that is the zero-loss basis), so
// promotion first waits until the backup's version reaches the version the
// primary had acknowledged, then installs the backup at the shard's node ID —
// workers keep routing to "server/i" and never learn a failover happened.
func (inj *SimInjector) promoteReplica(shard int, id node.ID, traceWorker int) {
	r := inj.promoted[shard] + 1
	backup := inj.opts.ReplicaServer(shard, r)
	if backup == nil {
		inj.errs = append(inj.errs, fmt.Errorf("faults: shard %d has no replica %d to promote", shard, r))
		return
	}
	target := inj.crashVersion[shard]
	var await func()
	await = func() {
		if backup.Version() < target {
			inj.sim.Schedule(catchUpPoll, await)
			return
		}
		inj.finishPromotion(shard, r, id, traceWorker, backup)
	}
	await()
}

// finishPromotion performs the switch once the backup has caught up: detach
// the backup handler from its replica node ID (one handler must not serve two
// live IDs), point it at the backups that remain, and restart the shard's
// well-known ID with it.
func (inj *SimInjector) finishPromotion(shard, r int, id node.ID, traceWorker int, backup *ps.Server) {
	if err := inj.sim.Crash(node.ReplicaID(shard, r)); err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	remaining := make([]node.ID, 0, inj.opts.Replicas-r)
	for i := r + 1; i <= inj.opts.Replicas; i++ {
		remaining = append(remaining, node.ReplicaID(shard, i))
	}
	backup.Promote(remaining)
	if err := inj.sim.Restart(id, backup); err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	inj.promoted[shard] = r // Promote counted the promotion and the restart
	if inj.opts.Tracer != nil {
		inj.opts.Tracer.Record(trace.Event{At: inj.sim.Now(), Worker: traceWorker, Kind: trace.KindRecover, Value: backup.Version()})
	}
	if inj.opts.OnServerRestart != nil {
		inj.opts.OnServerRestart(shard, backup)
	}
	if inj.opts.OnPromote != nil {
		inj.opts.OnPromote(shard, backup)
	}
}

// restartScheduler brings up the next scheduler incarnation: restore the
// latest checkpoint when one exists, then let the new incarnation's Init
// broadcast SchedulerHello — the StateReport replies rebuild whatever the
// checkpoint missed (or everything, on a cold start). No Start re-injection:
// a generation > 0 scheduler never re-Starts workers.
func (inj *SimInjector) restartScheduler() {
	inj.schedGen++
	sched, err := inj.opts.NewScheduler(inj.schedGen)
	if err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	if inj.schedSnap != nil {
		if err := sched.Restore(*inj.schedSnap); err != nil {
			inj.errs = append(inj.errs, err)
			return
		}
		inj.opts.Faults.Restore(true)
	}
	if err := inj.sim.Restart(node.Scheduler, sched); err != nil {
		inj.errs = append(inj.errs, err)
		return
	}
	// The scheduler's Init records the recover trace and counts the
	// scheduler restart itself (it knows its generation and node ID); the
	// injector counts the node restart.
	inj.opts.Faults.Restart()
	if inj.opts.OnSchedulerRestart != nil {
		inj.opts.OnSchedulerRestart(sched)
	}
}

// armCheckpoint snapshots every live shard on the period. Snapshots are
// in-memory (the simulated analogue of writing to durable storage).
func (inj *SimInjector) armCheckpoint() {
	inj.sim.Schedule(inj.opts.CheckpointEvery, func() {
		for shard := 0; shard < inj.opts.NumServers; shard++ {
			if inj.sim.Down(node.ServerID(shard)) {
				continue
			}
			if srv := inj.opts.Server(shard); srv != nil {
				inj.snaps[shard] = srv.Snapshot()
				inj.opts.Faults.Checkpoint()
			}
		}
		if inj.opts.Scheduler != nil && !inj.sim.Down(node.Scheduler) {
			if s := inj.opts.Scheduler(); s != nil {
				snap := s.Snapshot()
				inj.schedSnap = &snap
				inj.opts.Faults.Checkpoint()
			}
		}
		inj.armCheckpoint()
	})
}

// Errs returns runtime errors the injector hit while executing the plan
// (mis-scheduled crashes, failed restores). Empty on a clean run.
func (inj *SimInjector) Errs() []error { return inj.errs }
