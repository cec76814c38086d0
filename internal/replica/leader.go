package replica

import (
	"fmt"
	"time"

	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// LeaderConfig configures the bootstrap leader wrapper.
type LeaderConfig struct {
	// Sched is the embedded serving scheduler. Required.
	Sched *core.Scheduler
	// Standbys is the number of standby incarnations (scheduler/1..N).
	// Required >= 1 — with no standbys there is nothing to replicate to.
	Standbys int
	// ReplicateEvery is the snapshot-shipping period, which doubles as the
	// leader liveness heartbeat. Must be shorter than the standbys' election
	// timeout base or followers will call spurious elections. Required.
	ReplicateEvery time.Duration
	// Term is the term this leader serves under (0 for the bootstrap
	// incarnation).
	Term int64
	// Obs, if non-nil, exports the role/term gauges for this node and counts
	// the snapshots it ships.
	Obs *obs.Obs
}

// Leader wraps the serving scheduler at the well-known "scheduler" node ID:
// it delegates the whole coordination protocol to the embedded
// core.Scheduler and adds the replication duty — shipping its durable
// snapshot to every standby on each tick. It never steps down; failover is
// crash-triggered.
type Leader struct {
	ctx node.Context
	cfg LeaderConfig
}

var _ node.Handler = (*Leader)(nil)

// NewLeader validates cfg and builds the wrapper.
func NewLeader(cfg LeaderConfig) (*Leader, error) {
	if cfg.Sched == nil {
		return nil, fmt.Errorf("replica: nil scheduler")
	}
	if cfg.Standbys < 1 {
		return nil, fmt.Errorf("replica: leader needs at least one standby, got %d", cfg.Standbys)
	}
	if cfg.ReplicateEvery <= 0 {
		return nil, fmt.Errorf("replica: ReplicateEvery must be positive, got %v", cfg.ReplicateEvery)
	}
	return &Leader{cfg: cfg}, nil
}

// Init implements node.Handler.
func (l *Leader) Init(ctx node.Context) {
	l.ctx = ctx
	l.cfg.Obs.SchedulerRole(string(ctx.Self()), RoleLeader.String(), l.cfg.Term)
	l.cfg.Sched.Init(ctx)
	replicate(ctx, l.cfg.ReplicateEvery, l.cfg.Sched, standbyPeers(l.cfg.Standbys, 0), l.cfg.Term, 0, l.cfg.Obs.Faults())
}

// Receive implements node.Handler. Replication-protocol traffic is absorbed
// here; everything else is the coordination protocol and goes to the
// embedded scheduler.
func (l *Leader) Receive(from node.ID, m wire.Message) {
	switch mm := m.(type) {
	case *msg.VoteReq:
		// A live leader refuses every candidacy; the denial also tells the
		// candidate somebody is still serving.
		l.ctx.Send(from, &msg.VoteResp{Term: mm.Term, Granted: false})
	case *msg.VoteResp, *msg.ReplState, *msg.LeaderAnnounce:
		// Stale replication traffic from an election this leader was not
		// part of; ignore.
	default:
		l.cfg.Sched.Receive(from, m)
	}
}

// Sched returns the embedded serving scheduler.
func (l *Leader) Sched() *core.Scheduler { return l.cfg.Sched }

// Term returns the term this leader serves under.
func (l *Leader) Term() int64 { return l.cfg.Term }

// Role returns RoleLeader (the wrapper only ever serves).
func (l *Leader) Role() Role { return RoleLeader }
