package replica

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// StandbyConfig configures one standby scheduler incarnation.
type StandbyConfig struct {
	// Index is this standby's 1-based slot (node ID "scheduler/<Index>").
	Index int
	// Standbys is the total standby count; majority is Standbys/2+1.
	Standbys int
	// Workers is the cluster's worker capacity, for the LeaderAnnounce
	// broadcast after winning an election.
	Workers int
	// ElectionTimeout is the base T of the randomized election timeout,
	// drawn per arming from [T, 2T). Leader silence past the drawn timeout
	// starts a candidacy. Required.
	ElectionTimeout time.Duration
	// ReplicateEvery is the snapshot-shipping period this standby adopts
	// toward the surviving standbys once it is elected leader. Required.
	ReplicateEvery time.Duration
	// MakeScheduler builds the scheduler incarnation an election winner
	// embeds; gen is the new incarnation number. Required.
	MakeScheduler func(gen int64) (*core.Scheduler, error)
	// OnPromote, if non-nil, tells the harness this standby now embeds the
	// serving scheduler (swap result-accounting references).
	OnPromote func(sb *Standby, s *core.Scheduler)
	// Obs, if non-nil, exports role/term gauges and the "leader-elected"
	// flight-recorder event, and counts elections won and, once elected,
	// the snapshots shipped.
	Obs *obs.Obs
}

// Standby is a scheduler incarnation waiting in the wings: it follows the
// leader's ReplState stream (which doubles as the leader heartbeat), votes
// in elections, and — if elected — restores the freshest replicated
// snapshot into a new embedded core.Scheduler, redirects workers with
// LeaderAnnounce, and takes over replication toward the surviving standbys.
type Standby struct {
	ctx node.Context
	cfg StandbyConfig

	role atomic.Int32
	term atomic.Int64 // highest term seen (== serving term once leader)

	// votedTerm is the highest term this standby granted a vote in (its own
	// candidacies included).
	votedTerm int64
	// Latest replicated snapshot and its log position / origin term.
	lastIndex int64
	lastTerm  int64
	lastSnap  []byte
	// Candidate vote tally for term voteTerm: the distinct standbys (this one
	// included) that granted a vote. A set, not a count, because a VoteResp
	// can arrive twice (a duplicating fault, a transport retry).
	voteTerm int64
	voters   map[node.ID]bool

	electionCancel node.CancelFunc

	// The embedded scheduler, once elected.
	sched *core.Scheduler
}

var _ node.Handler = (*Standby)(nil)

// NewStandby validates cfg and builds the standby.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Index < 1 || cfg.Index > cfg.Standbys {
		return nil, fmt.Errorf("replica: standby index %d out of range 1..%d", cfg.Index, cfg.Standbys)
	}
	if cfg.ElectionTimeout <= 0 {
		return nil, fmt.Errorf("replica: ElectionTimeout must be positive, got %v", cfg.ElectionTimeout)
	}
	if cfg.ReplicateEvery <= 0 {
		return nil, fmt.Errorf("replica: ReplicateEvery must be positive, got %v", cfg.ReplicateEvery)
	}
	if cfg.MakeScheduler == nil {
		return nil, fmt.Errorf("replica: nil MakeScheduler")
	}
	return &Standby{cfg: cfg}, nil
}

// Init implements node.Handler.
func (sb *Standby) Init(ctx node.Context) {
	sb.ctx = ctx
	sb.cfg.Obs.SchedulerRole(string(ctx.Self()), RoleFollower.String(), sb.term.Load())
	sb.armElection()
}

// Receive implements node.Handler.
func (sb *Standby) Receive(from node.ID, m wire.Message) {
	switch mm := m.(type) {
	case *msg.ReplState:
		sb.handleReplState(mm)
	case *msg.VoteReq:
		sb.handleVoteReq(from, mm)
	case *msg.VoteResp:
		sb.handleVoteResp(from, mm)
	case *msg.LeaderAnnounce:
		// Another incarnation won: stand down and restart the failure
		// detector against the new leader.
		if sb.Role() != RoleLeader && mm.Term >= sb.term.Load() {
			sb.term.Store(mm.Term)
			sb.becomeFollower()
		}
	default:
		if sb.sched != nil {
			sb.sched.Receive(from, m)
			return
		}
		// Pre-promotion, only replication traffic is expected; Stop rides
		// through at shutdown and is a no-op for a cold standby.
		if _, ok := m.(*msg.Stop); !ok {
			sb.ctx.Logf("standby %d: unexpected message %T from %s", sb.cfg.Index, m, from)
		}
	}
}

// handleReplState ingests the leader's snapshot ship (and heartbeat).
func (sb *Standby) handleReplState(mm *msg.ReplState) {
	if sb.Role() == RoleLeader {
		return // stale ship from the incarnation this node replaced
	}
	if mm.Term < sb.term.Load() {
		return // stale ship from a deposed leader
	}
	sb.term.Store(mm.Term)
	if sb.Role() == RoleCandidate {
		sb.becomeFollower()
	}
	if mm.Index > sb.lastIndex {
		sb.lastIndex = mm.Index
		sb.lastTerm = mm.Term
		sb.lastSnap = mm.Snap
	}
	sb.armElection() // leader is alive: push the timeout out
}

// handleVoteReq grants one vote per term, and only to candidates whose
// replicated log is at least as fresh as ours.
func (sb *Standby) handleVoteReq(from node.ID, mm *msg.VoteReq) {
	grant := sb.Role() != RoleLeader &&
		mm.Term > sb.votedTerm &&
		mm.Index >= sb.lastIndex
	if grant {
		sb.votedTerm = mm.Term
		if mm.Term > sb.term.Load() {
			sb.term.Store(mm.Term)
		}
		if sb.Role() == RoleCandidate {
			sb.becomeFollower()
		}
		sb.armElection() // granting resets the failure detector
	}
	sb.ctx.Send(from, &msg.VoteResp{Term: mm.Term, Granted: grant})
}

// handleVoteResp tallies votes for the current candidacy, one per voter.
func (sb *Standby) handleVoteResp(from node.ID, mm *msg.VoteResp) {
	if sb.Role() != RoleCandidate || !mm.Granted || mm.Term != sb.voteTerm {
		return
	}
	sb.voters[from] = true
	if len(sb.voters) >= majority(sb.cfg.Standbys) {
		sb.becomeLeader()
	}
}

// armElection (re)arms the leader failure detector with a fresh randomized
// timeout. Like the scheduler's beacon, the timer re-arms for the life of
// the node; a serving leader just ignores expirations.
func (sb *Standby) armElection() {
	if sb.electionCancel != nil {
		sb.electionCancel()
	}
	d := electionTimeout(sb.cfg.ElectionTimeout, sb.ctx.Rand())
	sb.electionCancel = sb.ctx.After(d, func() {
		sb.electionCancel = nil
		sb.onElectionTimeout()
	})
}

// onElectionTimeout starts (or retries) a candidacy: bump the term, vote for
// ourselves, solicit the other standbys. The timer re-arms so a split or
// dead election retries at a new randomized timeout.
func (sb *Standby) onElectionTimeout() {
	if sb.Role() == RoleLeader {
		return
	}
	term := sb.term.Add(1)
	sb.role.Store(int32(RoleCandidate))
	sb.cfg.Obs.SchedulerRole(string(sb.ctx.Self()), RoleCandidate.String(), term)
	sb.votedTerm = term // self-vote
	sb.voteTerm = term
	sb.voters = map[node.ID]bool{sb.ctx.Self(): true}
	sb.ctx.Logf("standby %d: leader silent; starting election for term %d", sb.cfg.Index, term)
	if len(sb.voters) >= majority(sb.cfg.Standbys) {
		sb.becomeLeader()
		return
	}
	for _, peer := range standbyPeers(sb.cfg.Standbys, sb.cfg.Index) {
		sb.ctx.Send(peer, &msg.VoteReq{Term: term, Index: sb.lastIndex})
	}
	sb.armElection()
}

// becomeFollower stands a candidate down.
func (sb *Standby) becomeFollower() {
	sb.role.Store(int32(RoleFollower))
	sb.voters = nil
	sb.cfg.Obs.SchedulerRole(string(sb.ctx.Self()), RoleFollower.String(), sb.term.Load())
}

// becomeLeader is the failover moment: build the next scheduler incarnation,
// warm it from the freshest replicated snapshot, redirect the cluster, and
// take over the replication duty.
func (sb *Standby) becomeLeader() {
	term := sb.term.Load()
	sb.role.Store(int32(RoleLeader))
	if sb.electionCancel != nil {
		sb.electionCancel()
		sb.electionCancel = nil
	}

	// The new generation continues the dead leader's sequence so workers
	// recognize the Hello/Announce as a fresh incarnation. A cold standby
	// (never received a snapshot) falls back to its term, which is >= 1.
	gen := term
	var restore *core.SchedulerSnapshot
	if sb.lastSnap != nil {
		snap, err := core.ReadSchedulerSnapshot(bytes.NewReader(sb.lastSnap))
		if err != nil {
			sb.ctx.Logf("standby %d: replicated snapshot decode: %v; starting cold", sb.cfg.Index, err)
		} else {
			restore = &snap
			if snap.Generation+1 > gen {
				gen = snap.Generation + 1
			}
		}
	}
	sched, err := sb.cfg.MakeScheduler(gen)
	if err != nil {
		sb.ctx.Logf("standby %d: cannot build scheduler incarnation: %v", sb.cfg.Index, err)
		sb.becomeFollower()
		return
	}
	if restore != nil {
		if err := sched.Restore(*restore); err != nil {
			sb.ctx.Logf("standby %d: snapshot restore: %v; starting cold", sb.cfg.Index, err)
		}
	}
	sb.sched = sched
	faults := sb.cfg.Obs.Faults()
	faults.Election()
	sb.cfg.Obs.SchedulerRole(string(sb.ctx.Self()), RoleLeader.String(), term)
	sb.cfg.Obs.RecordFlight(obs.FlightEvent{
		At: sb.ctx.Now(), Kind: "leader-elected", Node: string(sb.ctx.Self()), Value: float64(term),
		Detail: fmt.Sprintf("gen %d, snapshot index %d", gen, sb.lastIndex),
	})
	sb.ctx.Logf("standby %d: elected leader (term %d, gen %d, snapshot index %d)", sb.cfg.Index, term, gen, sb.lastIndex)
	if sb.cfg.OnPromote != nil {
		sb.cfg.OnPromote(sb, sched)
	}

	// Redirect the cluster before the embedded Init's Hello broadcast: the
	// announce is what moves workers' scheduler address to this node.
	announce := func(to node.ID) { sb.ctx.Send(to, &msg.LeaderAnnounce{Term: term, Gen: gen}) }
	for i := 0; i < sb.cfg.Workers; i++ {
		announce(node.WorkerID(i))
	}
	for _, peer := range standbyPeers(sb.cfg.Standbys, sb.cfg.Index) {
		announce(peer)
	}
	sb.sched.Init(sb.ctx)
	replicate(sb.ctx, sb.cfg.ReplicateEvery, sched, standbyPeers(sb.cfg.Standbys, sb.cfg.Index), term, sb.lastIndex, faults)
}

// Role returns the standby's current protocol role. Safe for concurrent use.
func (sb *Standby) Role() Role { return Role(sb.role.Load()) }

// Term returns the highest term seen (the serving term once leader). Safe
// for concurrent use.
func (sb *Standby) Term() int64 { return sb.term.Load() }

// Sched returns the embedded scheduler once this standby has been elected,
// nil before.
func (sb *Standby) Sched() *core.Scheduler { return sb.sched }
