// Package jobs is the multi-tenant job platform: a manager that admits,
// schedules, and retires concurrent training jobs sharing one parameter-server
// fleet and one deterministic event loop.
//
// Each job owns a JobID, a namespaced parameter range carved out of the shared
// key space (core.ShardRoute's Job dimension), its own synchronization scheme,
// and per-job fairness/quota accounting: a cap on in-flight pushes and a byte
// budget measured by the bytes-on-wire counters. The worker and scheduler code
// runs unchanged inside a fleet — a scoped handler (scope.go) translates node
// IDs at the boundary, and a per-server multiplexer (host.go) dispatches the
// JobMsg envelope to the right tenant shard. Admission, quota enforcement,
// convergence probing, and janitor cleanup all happen on a periodic control
// tick (manager.go, the Orion-Agent sync-scheduler idiom), so a multi-job run
// stays deterministic under the simulator. An HTTP gateway (gateway.go)
// exposes POST/GET/DELETE /jobs on the existing observability surface.
package jobs

import (
	"sync/atomic"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// State is a job's lifecycle position. Transitions only move forward:
// Pending → Running → one of the terminal states.
type State int

const (
	// Pending jobs sit in the admission queue (submitted, not yet due or
	// waiting for a concurrency slot).
	Pending State = iota
	// Running jobs have live nodes training.
	Running
	// Converged jobs reached their target loss and were retired.
	Converged
	// Stopped jobs were retired by the operator (DELETE /jobs/{id}).
	Stopped
	// OverBudget jobs were retired by the janitor for exceeding their wire
	// byte budget.
	OverBudget
	// Failed jobs could not be spawned (bad spec caught at admission).
	Failed
)

// String returns the lowercase state name used in JSON and logs.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Converged:
		return "converged"
	case Stopped:
		return "stopped"
	case OverBudget:
		return "over_budget"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Terminal reports whether the job has been retired.
func (s State) Terminal() bool { return s != Pending && s != Running }

// Quota bounds one job's resource usage on the shared fleet.
type Quota struct {
	// MaxInflightPush caps this job's unacknowledged push messages (per
	// worker); further pushes queue at the tenancy boundary until acks
	// drain. Zero means unlimited.
	MaxInflightPush int
	// ByteBudget retires the job (state OverBudget) once its bytes on wire
	// exceed this. Zero means unlimited.
	ByteBudget int64
}

// Acct is one job's live resource accounting. The Transfer accumulates every
// message the job's nodes send (recorded under the inner message kind but
// with envelope bytes, so per-job totals sum exactly to the fleet total);
// the atomic counters are maintained by the push gate and read by the
// gateway without locks.
type Acct struct {
	// Transfer is the per-kind byte accounting for this job.
	Transfer *metrics.Transfer

	inflight  atomic.Int64
	throttled atomic.Int64
}

// NewAcct builds accounting around a fresh per-job Transfer.
func NewAcct() *Acct {
	return &Acct{Transfer: metrics.NewTransfer(msg.IsControl)}
}

func (a *Acct) record(from, to node.ID, kind wire.Kind, bytes int, at time.Time) {
	if a == nil || a.Transfer == nil {
		return
	}
	a.Transfer.RecordTransfer(from, to, kind, bytes, at)
}

// Bytes returns the job's total bytes on wire so far.
func (a *Acct) Bytes() int64 {
	if a == nil || a.Transfer == nil {
		return 0
	}
	return a.Transfer.TotalBytes()
}

// InflightPushes returns the current number of unacknowledged pushes.
func (a *Acct) InflightPushes() int64 {
	if a == nil {
		return 0
	}
	return a.inflight.Load()
}

// ThrottledPushes returns how many pushes have waited in the quota queue.
func (a *Acct) ThrottledPushes() int64 {
	if a == nil {
		return 0
	}
	return a.throttled.Load()
}

// Job is one training job's manager-side record. The identity fields are set
// before Submit and never change; the lifecycle fields below the marker are
// owned by the manager (guarded by its lock once submitted).
type Job struct {
	// ID is assigned by Submit; it namespaces the job's node IDs and its
	// parameter ranges in the shared routing table.
	ID int
	// Name is the human-readable label (also the per-job metric label).
	Name string
	// SchemeName is the synchronization scheme label for listings.
	SchemeName string
	// Workers is the job's cluster size.
	Workers int
	// SubmitAt delays admission until this virtual time.
	SubmitAt time.Duration
	// TargetLoss defines convergence for this job.
	TargetLoss float64
	// EvalEvery is the probe interval (quantized to manager ticks).
	EvalEvery time.Duration
	// ConsecutiveBelow is the convergence streak length.
	ConsecutiveBelow int
	// Quota bounds the job's fleet usage.
	Quota Quota
	// Acct is the job's live accounting, shared with its scoped nodes.
	Acct *Acct
	// Payload carries the runner's construction state (cluster.Fleet hangs
	// its per-job node handles here); the manager never inspects it.
	Payload any

	// --- manager-owned from Submit onward ---

	// State is the lifecycle position.
	State State
	// Err is the spawn error for Failed jobs.
	Err string
	// AdmittedAt and FinishedAt are virtual times (zero until reached).
	AdmittedAt time.Duration
	FinishedAt time.Duration
	// Loss and IterSeries are the per-probe series.
	Loss       metrics.Series
	IterSeries metrics.Series
	// FinalLoss, Iters, and Pushes mirror the latest probe sample.
	FinalLoss float64
	Iters     int64
	Pushes    int64
	// ConvergeTime is the start of the qualifying streak (Converged only).
	ConvergeTime time.Duration

	streak    int
	nextProbe time.Duration
	stopReq   bool
	cleaned   bool
}
