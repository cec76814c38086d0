package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/faults"
)

// FailoverResult summarizes the replication benchmark: the zero-loss claim
// (a crashed, replicated shard run ends on the byte-identical model as the
// fault-free run, while checkpoint restore provably loses pushes) and the
// scheduler-failover claim (an elected standby takes over and carries the
// run to convergence).
type FailoverResult struct {
	Replicas int `json:"replicas"`
	Standbys int `json:"standbys"`

	// Zero-loss proof: single-worker run with a fixed iteration budget, so
	// both runs apply the identical update sequence and digest equality is
	// exactly "no acknowledged push was lost".
	BaselineDigest  string `json:"baseline_digest"`
	ReplicaDigest   string `json:"replica_digest"`
	ZeroLoss        bool   `json:"zero_loss"`
	ReplicaLost     int64  `json:"replica_lost_pushes"`
	CheckpointLost  int64  `json:"checkpoint_lost_pushes"`
	CheckpointMatch bool   `json:"checkpoint_digest_match"` // expected false
	Promotions      int64  `json:"promotions"`

	// Scheduler failover at cluster scale.
	Elections    int64         `json:"elections"`
	FinalTerm    int64         `json:"final_term"`
	LeaderNode   string        `json:"leader_node"`
	Converged    bool          `json:"converged"`
	ConvergeTime time.Duration `json:"converge_time_ns"`

	// Reproducible: two identical replicated crash runs produced the same
	// final digest (replication must not perturb DES determinism).
	Reproducible bool `json:"reproducible"`
}

// Failover runs the replication benchmark: a crash-server plan against a
// replicated and a checkpoint-only MF shard fleet, and a crash-scheduler
// plan against a standby fleet. replicas and standbys must both be >= 1.
func Failover(o Options, replicas, standbys int) (*FailoverResult, error) {
	o = o.normalize()
	if replicas < 1 || standbys < 1 {
		return nil, fmt.Errorf("failover experiment needs replicas >= 1 and standbys >= 1 (got %d, %d)", replicas, standbys)
	}
	res := &FailoverResult{Replicas: replicas, Standbys: standbys}

	// -- Zero-loss: single worker, fixed budget, crash one shard mid-run.
	zeroCfg := func() (cluster.Config, error) {
		wl, err := cluster.NewMF(o.Size, 1, o.Seed)
		if err != nil {
			return cluster.Config{}, err
		}
		return cluster.Config{
			Workload:          wl,
			Scheme:            schemeAdaptive(),
			Workers:           1,
			Servers:           4,
			Seed:              o.Seed,
			MaxVirtual:        o.MaxVirtual,
			MaxItersPerWorker: 40,
			ConsecutiveBelow:  1 << 30, // the budget ends the run, not the target
		}, nil
	}
	crash := func(wl cluster.Workload) *faults.Plan {
		return &faults.Plan{Seed: o.Seed, Events: []faults.Event{
			{Kind: faults.KindCrashServer, Node: 1, At: 10 * wl.IterTime, RestartAfter: 4 * wl.IterTime},
		}}
	}
	runZero := func(withReplicas, withCrash bool) (*cluster.Result, error) {
		cfg, err := zeroCfg()
		if err != nil {
			return nil, err
		}
		if withReplicas {
			cfg.Replication = cluster.Replication{Replicas: replicas}
		}
		if withCrash {
			cfg.Faults = crash(cfg.Workload)
		}
		return cluster.Run(cfg)
	}

	baseline, err := runZero(true, false)
	if err != nil {
		return nil, err
	}
	res.BaselineDigest = baseline.ParamsDigest
	o.progressf("failover: fault-free baseline digest %.12s...", baseline.ParamsDigest)

	crashed, err := runZero(true, true)
	if err != nil {
		return nil, err
	}
	res.ReplicaDigest = crashed.ParamsDigest
	res.ZeroLoss = crashed.ParamsDigest == baseline.ParamsDigest
	res.ReplicaLost = crashed.Faults.LostPushes
	if crashed.Replication != nil {
		res.Promotions = crashed.Replication.Promotions
	}
	o.progressf("failover: replicated crash run digest %.12s... (zero loss: %v)", crashed.ParamsDigest, res.ZeroLoss)

	again, err := runZero(true, true)
	if err != nil {
		return nil, err
	}
	res.Reproducible = again.ParamsDigest == crashed.ParamsDigest

	lossy, err := runZero(false, true)
	if err != nil {
		return nil, err
	}
	res.CheckpointLost = lossy.Faults.LostPushes
	res.CheckpointMatch = lossy.ParamsDigest == baseline.ParamsDigest
	o.progressf("failover: checkpoint-only crash run lost %d pushes", res.CheckpointLost)

	// -- Scheduler failover at cluster scale: kill the leader, never
	// restart it, and require the standbys to carry the run to convergence.
	wl, err := cluster.NewMF(o.Size, o.Workers, o.Seed)
	if err != nil {
		return nil, err
	}
	sched, err := cluster.Run(cluster.Config{
		Workload:   wl,
		Scheme:     schemeAdaptive(),
		Workers:    o.Workers,
		Seed:       o.Seed,
		MaxVirtual: o.MaxVirtual,
		Replication: cluster.Replication{
			StandbySchedulers: standbys,
		},
		Faults: &faults.Plan{Seed: o.Seed, Events: []faults.Event{
			{Kind: faults.KindCrashScheduler, At: 8 * wl.IterTime},
		}},
	})
	if err != nil {
		return nil, err
	}
	res.Converged = sched.Converged
	res.ConvergeTime = sched.ConvergeTime
	if rs := sched.Replication; rs != nil {
		res.Elections = rs.Elections
		res.FinalTerm = rs.FinalTerm
		res.LeaderNode = rs.LeaderNode
	}
	o.progressf("failover: scheduler kill -> %d elections, leader %s", res.Elections, res.LeaderNode)
	return res, nil
}

// Render prints the failover summary.
func (r *FailoverResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Replicated failover (R=%d shard backups, %d standby schedulers)\n\n", r.Replicas, r.Standbys)
	fmt.Fprintf(w, "  shard crash, replicated:      lost pushes %d, promotions %d, digest match %v\n",
		r.ReplicaLost, r.Promotions, r.ZeroLoss)
	fmt.Fprintf(w, "  shard crash, checkpoint-only: lost pushes %d, digest match %v\n",
		r.CheckpointLost, r.CheckpointMatch)
	fmt.Fprintf(w, "  deterministic replay:         %v\n", r.Reproducible)
	fmt.Fprintf(w, "  scheduler kill: %d election(s), leader %s at term %d, converged %v",
		r.Elections, r.LeaderNode, r.FinalTerm, r.Converged)
	if r.Converged {
		fmt.Fprintf(w, " at %v", r.ConvergeTime.Round(time.Second))
	}
	fmt.Fprintln(w)
	if r.ZeroLoss && !r.CheckpointMatch {
		fmt.Fprintf(w, "\n  zero-loss failover holds: replication preserved every acknowledged push; checkpoint restore did not\n")
	}
}
