// Package node defines the actor-style abstraction every distributed
// component (parameter-server shard, worker, scheduler) is written against.
//
// A node is an event-driven state machine: it never blocks. All waiting is
// expressed as timers (Context.After) or incoming messages (Handler.Receive),
// and the runtime guarantees that all callbacks of one node are serialized.
// Because the logic only ever talks to a Context, the *same* worker/server/
// scheduler code runs unchanged under the deterministic discrete-event
// simulator (internal/des, virtual time) and the live runtime
// (internal/live, real goroutines, in-memory or TCP transport). That is the
// property the whole reproduction rests on: the experiments exercise exactly
// the code a real deployment runs.
package node

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"specsync/internal/wire"
)

// ID names a node. IDs double as routing keys on every transport and embed
// the node's role for readability ("worker/3", "server/0", "scheduler").
type ID string

// Scheduler is the well-known ID of the centralized SpecSync scheduler.
const Scheduler ID = "scheduler"

// WorkerID returns the ID of the i-th worker.
func WorkerID(i int) ID { return ID("worker/" + strconv.Itoa(i)) }

// ServerID returns the ID of the i-th parameter-server shard.
func ServerID(i int) ID { return ID("server/" + strconv.Itoa(i)) }

// ProbeID is the ID used by evaluation probes (loss measurement). Probes are
// observers; their traffic is excluded from transfer accounting.
const ProbeID ID = "probe"

// StandbyID returns the ID of the i-th standby scheduler incarnation
// (1-based: "scheduler/1", "scheduler/2", ...). The well-known Scheduler ID
// stays index 0 so the bootstrap leader needs no special casing.
func StandbyID(i int) ID { return ID("scheduler/" + strconv.Itoa(i)) }

// ReplicaID returns the ID of replica r of parameter shard s (1-based r:
// "replica/0/1" is the first backup of shard 0; the primary is "server/0").
func ReplicaID(shard, r int) ID {
	return ID("replica/" + strconv.Itoa(shard) + "/" + strconv.Itoa(r))
}

// WorkerIndex parses a worker ID back to its index. It returns -1 for
// non-worker IDs.
func WorkerIndex(id ID) int {
	return indexOf(id, "worker/")
}

// ServerIndex parses a server ID back to its index, or -1.
func ServerIndex(id ID) int {
	return indexOf(id, "server/")
}

// StandbyIndex parses a standby-scheduler ID back to its (1-based) index, or
// -1 for non-standby IDs (including the plain "scheduler" leader ID).
func StandbyIndex(id ID) int {
	n := indexOf(id, "scheduler/")
	if n < 1 {
		return -1
	}
	return n
}

// ReplicaOf parses a replica ID back to its (shard, replica) pair, or
// (-1, -1) for non-replica IDs.
func ReplicaOf(id ID) (shard, r int) {
	s := string(id)
	if !strings.HasPrefix(s, "replica/") {
		return -1, -1
	}
	rest := s[len("replica/"):]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return -1, -1
	}
	shard, err1 := strconv.Atoi(rest[:slash])
	r, err2 := strconv.Atoi(rest[slash+1:])
	if err1 != nil || err2 != nil || shard < 0 || r < 1 {
		return -1, -1
	}
	return shard, r
}

func indexOf(id ID, prefix string) int {
	s := string(id)
	if !strings.HasPrefix(s, prefix) {
		return -1
	}
	n, err := strconv.Atoi(s[len(prefix):])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// CancelFunc cancels a pending timer. Calling it after the timer fired (or
// twice) is a no-op; it never blocks.
type CancelFunc func()

// Context is the runtime surface a node acts through. Implementations are
// only safe to use from within the owning node's callbacks (Init, Receive,
// timer functions), which the runtime serializes.
type Context interface {
	// Self returns this node's ID.
	Self() ID
	// Now returns the current time: virtual under the simulator, wall-clock
	// under the live runtime.
	Now() time.Time
	// Send delivers m to the destination node asynchronously. Sends to
	// unknown nodes are dropped (and logged), matching UDP-like fire-and-
	// forget semantics; the protocols built on top are request/response.
	// m is encoded before Send returns, so it may alias buffers the caller
	// goes on to reuse (a shard's parameters, a received message's slices).
	Send(to ID, m wire.Message)
	// After schedules f to run on this node's executor after d. The returned
	// cancel function stops an unfired timer.
	After(d time.Duration, f func()) CancelFunc
	// Rand returns this node's deterministic random stream. Under the
	// simulator the stream depends only on the master seed and the node ID.
	Rand() *rand.Rand
	// Logf emits a debug log line tagged with the node and current time.
	Logf(format string, args ...any)
}

// Handler is the logic of one node.
type Handler interface {
	// Init is called once before any message is delivered. The node must
	// retain ctx for later use.
	Init(ctx Context)
	// Receive is called for each incoming message, serialized with all other
	// callbacks of this node.
	//
	// A message the runtime decoded belongs to the handler until Receive
	// returns and to the runtime afterwards: the runtime recycles it
	// (wire.Registry.Recycle), and the next message of the kind is decoded
	// into the same slices. A handler that needs a field longer copies it out
	// before returning; forwarding through Context.Send counts as done,
	// because every Send encodes before it returns. Messages a driver injects
	// (TCPHost.Inject) stay the driver's and are never recycled.
	Receive(from ID, m wire.Message)
}

// RandSeed derives a stable per-node RNG seed from a master seed, so node
// randomness is independent of scheduling order.
func RandSeed(master int64, id ID) int64 {
	// FNV-1a over the id, mixed with the master seed.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return master ^ int64(h)
}

// Validate reports whether an ID is well-formed for this system.
func Validate(id ID) error {
	if id == Scheduler || id == ProbeID {
		return nil
	}
	if WorkerIndex(id) >= 0 || ServerIndex(id) >= 0 || StandbyIndex(id) >= 1 {
		return nil
	}
	if shard, _ := ReplicaOf(id); shard >= 0 {
		return nil
	}
	return fmt.Errorf("node: malformed id %q", id)
}
