// Package replica implements the replicated scheduler control plane: N
// standby scheduler incarnations that follow the serving leader's replicated
// state and elect a successor (terms, randomized election timeouts, majority
// votes — the Raft shape, simplified to a single-entry snapshot log) when
// the leader dies. The data-plane counterpart, primary-backup parameter
// shard replication, lives in internal/ps (replica.go); internal/faults
// wires both into fault plans so a crash-scheduler event ends in an elected
// standby, and a crash-server event ends in a zero-loss shard promotion
// instead of a lossy checkpoint restore.
//
// Simplifications relative to full Raft, deliberate for this system:
//
//   - The log is a single entry: the leader's latest core.SchedulerSnapshot,
//     shipped whole on every replication tick (it is small — the scheduler's
//     durable state is bounded by the worker count). Index ordering stands
//     in for log matching; a standby keeps only the newest snapshot.
//   - The bootstrap leader serves at term 0 by fiat (it is the only
//     incarnation at cluster start, so there is nothing to elect), and a
//     serving leader never steps down — failover is crash-triggered, which
//     is exactly what the fault plans exercise.
//   - The electorate is the standby set only. Majority is len(standbys)/2+1,
//     so a single standby self-elects, and the scheduler StateReport
//     handshake (PR 3) repairs anything the replicated snapshot missed.
package replica

import (
	"bytes"
	"fmt"
	"time"

	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
)

// Role is a scheduler incarnation's place in the replication protocol.
type Role int32

const (
	// RoleFollower is a standby tracking a live leader.
	RoleFollower Role = iota
	// RoleCandidate is a standby soliciting votes after leader silence.
	RoleCandidate
	// RoleLeader is the serving incarnation (bootstrap primary or an
	// election winner).
	RoleLeader
)

// String returns the role's /healthz and gauge label.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	}
	return fmt.Sprintf("role(%d)", int32(r))
}

// majority returns the votes needed to win an election among n standbys.
func majority(n int) int { return n/2 + 1 }

// standbyPeers returns the standby IDs other than self (0 = the bootstrap
// leader, which has no standby ID and is excluded by passing self=0).
func standbyPeers(total, self int) []node.ID {
	peers := make([]node.ID, 0, total)
	for i := 1; i <= total; i++ {
		if i == self {
			continue
		}
		peers = append(peers, node.StandbyID(i))
	}
	return peers
}

// electionTimeout draws a randomized timeout in [base, 2*base) — the spread
// that keeps two standbys from splitting every vote. rnd must be the node's
// own deterministic stream so elections replay identically under the DES.
func electionTimeout(base time.Duration, rnd interface{ Int63n(int64) int64 }) time.Duration {
	return base + time.Duration(rnd.Int63n(int64(base)))
}

// replicate is the serving leader's snapshot-shipping loop, the bootstrap
// Leader's and an elected Standby's alike. Every period it ships sched's
// durable snapshot to peers as the next log entry under term, starting after
// index; the ship doubles as the leader heartbeat. Like the scheduler's own
// beacon, it re-arms for the life of the node.
func replicate(ctx node.Context, every time.Duration, sched *core.Scheduler, peers []node.ID, term, index int64, faults *obs.FaultObs) {
	ctx.After(every, func() {
		var buf bytes.Buffer
		snap := sched.Snapshot()
		if _, err := snap.WriteTo(&buf); err != nil {
			ctx.Logf("replica: snapshot encode: %v", err)
		} else {
			index++
			for _, peer := range peers {
				// Send marshals synchronously, so sharing buf across sends is safe.
				ctx.Send(peer, &msg.ReplState{Term: term, Index: index, Snap: buf.Bytes()})
			}
			faults.SnapshotShipped()
		}
		replicate(ctx, every, sched, peers, term, index, faults)
	})
}
