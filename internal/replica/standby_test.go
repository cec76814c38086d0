package replica

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// sentMsg is one Send a fakeContext recorded.
type sentMsg struct {
	to node.ID
	m  wire.Message
}

// fakeContext is a node.Context with a frozen clock that records sends and
// holds timers until the test fires them.
type fakeContext struct {
	self    node.ID
	rng     *rand.Rand
	sent    []sentMsg
	pending []*func()
}

func (c *fakeContext) Self() node.ID                   { return c.self }
func (c *fakeContext) Now() time.Time                  { return time.Unix(0, 0) }
func (c *fakeContext) Send(to node.ID, m wire.Message) { c.sent = append(c.sent, sentMsg{to, m}) }
func (c *fakeContext) Rand() *rand.Rand                { return c.rng }
func (c *fakeContext) Logf(string, ...any)             {}
func (c *fakeContext) After(_ time.Duration, f func()) node.CancelFunc {
	p := &f
	c.pending = append(c.pending, p)
	return func() { *p = nil }
}

// fireTimers runs every timer armed and not cancelled so far; timers the
// callbacks arm wait for the next call.
func (c *fakeContext) fireTimers() {
	due := c.pending
	c.pending = nil
	for _, p := range due {
		if f := *p; f != nil {
			*p = nil
			f()
		}
	}
}

// voteResps returns the VoteResps sent so far, in order.
func (c *fakeContext) voteResps() []*msg.VoteResp {
	var out []*msg.VoteResp
	for _, s := range c.sent {
		if r, ok := s.m.(*msg.VoteResp); ok {
			out = append(out, r)
		}
	}
	return out
}

// newStandby builds and starts standby index of n, its election timer armed.
func newStandby(t *testing.T, index, n int) (*Standby, *fakeContext) {
	t.Helper()
	sb, err := NewStandby(StandbyConfig{
		Index:           index,
		Standbys:        n,
		Workers:         2,
		ElectionTimeout: time.Second,
		ReplicateEvery:  100 * time.Millisecond,
		Obs:             obs.New(obs.Options{}),
		MakeScheduler: func(gen int64) (*core.Scheduler, error) {
			return core.NewScheduler(core.SchedulerConfig{
				Workers: 2, InitialSpan: 100 * time.Millisecond, Generation: gen,
				Scheme: scheme.Config{Base: scheme.ASP},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeContext{self: node.StandbyID(index), rng: rand.New(rand.NewSource(int64(index)))}
	sb.Init(ctx)
	return sb, ctx
}

// candidate returns standby 1 of n after its leader went silent: a candidate
// at term 1 holding its own vote.
func candidate(t *testing.T, n int) (*Standby, *fakeContext) {
	t.Helper()
	sb, ctx := newStandby(t, 1, n)
	ctx.fireTimers()
	if sb.Role() != RoleCandidate || sb.Term() != 1 {
		t.Fatalf("after the election timeout: %v at term %d, want a candidate at term 1", sb.Role(), sb.Term())
	}
	return sb, ctx
}

// TestDuplicateVoteCountsOnce: with four standbys a candidate needs three
// distinct votes. One peer's grant delivered twice is still one vote — if it
// counted twice, a second candidate could win the same term with the other
// two peers and the cluster would have two leaders.
func TestDuplicateVoteCountsOnce(t *testing.T) {
	sb, _ := candidate(t, 4)
	grant := &msg.VoteResp{Term: 1, Granted: true}
	sb.Receive(node.StandbyID(2), grant)
	sb.Receive(node.StandbyID(2), grant)
	if sb.Role() != RoleCandidate {
		t.Fatalf("elected %v on 2 distinct votes of the 3 a majority of 4 needs", sb.Role())
	}
	sb.Receive(node.StandbyID(3), grant)
	if n := sb.cfg.Obs.Registry().SumCounters("specsync_scheduler_elections_total"); sb.Role() != RoleLeader || n != 1 {
		t.Fatalf("role %v and %d elections after a third distinct vote, want leader and 1", sb.Role(), n)
	}
}

// TestVotesOncePerTermForFreshCandidates: a standby grants at most one vote
// per term, and never to a candidate whose replicated snapshot is behind its
// own.
func TestVotesOncePerTermForFreshCandidates(t *testing.T) {
	sb, ctx := newStandby(t, 1, 3)
	sb.Receive(node.Scheduler, &msg.ReplState{Term: 1, Index: 5, Snap: []byte{1}})
	for _, step := range []struct {
		from  int
		req   msg.VoteReq
		grant bool
	}{
		{2, msg.VoteReq{Term: 2, Index: 4}, false}, // behind our index 5
		{2, msg.VoteReq{Term: 2, Index: 5}, true},
		{3, msg.VoteReq{Term: 2, Index: 9}, false}, // already voted in term 2
		{2, msg.VoteReq{Term: 2, Index: 5}, false}, // nor twice for the same one
		{3, msg.VoteReq{Term: 3, Index: 5}, true},
	} {
		sb.Receive(node.StandbyID(step.from), &step.req)
		resps := ctx.voteResps()
		last := resps[len(resps)-1]
		if last.Granted != step.grant || last.Term != step.req.Term || ctx.sent[len(ctx.sent)-1].to != node.StandbyID(step.from) {
			t.Errorf("VoteReq %+v from standby %d: answered %+v to %s, want granted=%v",
				step.req, step.from, *last, ctx.sent[len(ctx.sent)-1].to, step.grant)
		}
	}
	if sb.Term() != 3 {
		t.Errorf("term %d after granting a term-3 vote, want 3", sb.Term())
	}
}

// TestStaleReplStateIgnored: a snapshot ship from a deposed leader's lower
// term neither replaces the newer snapshot nor stands a candidate down.
func TestStaleReplStateIgnored(t *testing.T) {
	sb, ctx := newStandby(t, 1, 3)
	sb.Receive(node.Scheduler, &msg.ReplState{Term: 2, Index: 3, Snap: []byte{2}})
	sb.Receive(node.Scheduler, &msg.ReplState{Term: 1, Index: 7, Snap: []byte{1}})
	if sb.Term() != 2 || sb.lastIndex != 3 || sb.lastSnap[0] != 2 {
		t.Errorf("after a term-1 ship: term %d, snapshot index %d, want term 2 index 3", sb.Term(), sb.lastIndex)
	}
	ctx.fireTimers() // candidate at term 3
	sb.Receive(node.Scheduler, &msg.ReplState{Term: 2, Index: 9, Snap: []byte{3}})
	if sb.Role() != RoleCandidate || sb.Term() != 3 || sb.lastIndex != 3 {
		t.Errorf("a term-2 ship moved a term-3 candidate: %v at term %d, snapshot index %d", sb.Role(), sb.Term(), sb.lastIndex)
	}
}

// TestLeaderAnnounceStandsCandidateDown: an announce from an election winner
// at the candidate's term or later ends its candidacy; one from an older term
// does not.
func TestLeaderAnnounceStandsCandidateDown(t *testing.T) {
	sb, _ := candidate(t, 3)
	sb.Receive(node.StandbyID(2), &msg.LeaderAnnounce{Term: 0, Gen: 1})
	if sb.Role() != RoleCandidate {
		t.Fatalf("a term-0 announce stood a term-1 candidate down")
	}
	sb.Receive(node.StandbyID(2), &msg.LeaderAnnounce{Term: 1, Gen: 1})
	if sb.Role() != RoleFollower || sb.Term() != 1 {
		t.Errorf("after a term-1 announce: %v at term %d, want a follower at term 1", sb.Role(), sb.Term())
	}
	// Its old candidacy's votes no longer count.
	sb.Receive(node.StandbyID(3), &msg.VoteResp{Term: 1, Granted: true})
	if sb.Role() != RoleFollower {
		t.Errorf("a late vote for the abandoned candidacy made it %v", sb.Role())
	}
}
