package worker

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/scheme"
)

// TestReSyncAfterFusedRoundAbortsAndRepulls: under ASP the replies to
// iteration 0's push carry iteration 1's parameters, so the worker computes
// iteration 1 without a PullReq, and a ReSync for it that arrives early in
// that compute aborts and re-pulls with an explicit PullReq.
func TestReSyncAfterFusedRoundAbortsAndRepulls(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(1200 * time.Millisecond) // computing iteration 1 since ~1.004s
	if h.w.IterationsDone() != 1 || h.w.st != stateComputing || h.srv.pulls != 1 {
		t.Fatalf("after a fused round: %d iterations, state %d, %d PullReqs; want 1, computing, 1",
			h.w.IterationsDone(), h.w.st, h.srv.pulls)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 1})
	h.sim.RunFor(10 * time.Millisecond)
	if h.w.Aborts() != 1 || h.srv.pulls != 2 {
		t.Errorf("ReSync after a fused round: %d aborts, %d PullReqs; want 1 and 2", h.w.Aborts(), h.srv.pulls)
	}
}

// TestReSyncDuringExplicitPullIgnored: a ReSync that lands while an explicit
// pull is in flight finds nothing computing and changes nothing.
func TestReSyncDuringExplicitPullIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(1500 * time.Microsecond) // Start landed at 1ms; the pull answers at 3ms
	if h.w.st != statePulling {
		t.Fatalf("state %d, want pulling", h.w.st)
	}
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 0})
	h.sim.RunFor(3 * time.Second)
	if h.w.Aborts() != 0 || h.srv.pulls != 1 {
		t.Errorf("ReSync mid-pull: %d aborts, %d PullReqs; want 0 and 1", h.w.Aborts(), h.srv.pulls)
	}
}

// TestGateParkDropsFusedBlock: a scheme switch that lands during a fused
// round tightens the gate, so the worker parks when the round completes. It
// drops the block that came with the replies and pulls afresh after the
// release.
func TestGateParkDropsFusedBlock(t *testing.T) {
	mdl := testModel(t, 1)
	wk, err := New(Config{
		Shards: []ps.Range{{Lo: 0, Hi: mdl.Dim()}}, Model: mdl,
		Scheme:  scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: time.Second, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &manualCtx{rng: rand.New(rand.NewSource(5))}
	wk.Init(ctx)
	wk.Receive(node.Scheduler, &msg.Start{})
	wk.Receive(node.ServerID(0), &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, mdl.Dim())})
	ctx.fire()
	if !wk.fused {
		t.Fatal("ASP push round not fused")
	}
	wk.Receive(node.Scheduler, &msg.SchemeSwitch{Epoch: 1, Bound: 0, Quorum: 1, Released: 0})
	wk.Receive(node.ServerID(0), &msg.PullResp{Seq: 2, Version: 2, Values: make([]float64, mdl.Dim())})
	if wk.st != stateBarrier || wk.fused {
		t.Fatalf("after the switch: state %d, fused %v; want parked with the block dropped", wk.st, wk.fused)
	}
	frames := len(ctx.frames)
	wk.Receive(node.Scheduler, &msg.Release{Clock: 1})
	if len(ctx.frames) != frames+1 {
		t.Fatalf("release sent %d frames, want one PullReq", len(ctx.frames)-frames)
	}
	got, err := msg.Registry().Unmarshal(ctx.frames[frames])
	if err != nil {
		t.Fatal(err)
	}
	if pr, ok := got.(*msg.PullReq); !ok || pr.Seq != 3 || wk.st != statePulling {
		t.Errorf("after the release sent %+v in state %d, want PullReq{Seq: 3} while pulling", got, wk.st)
	}
}

// TestDuplicatePullRespCountsOnce: a duplicating network delivers shard 0's
// reply to a pull round twice. The round counts shard 0 once, so a 2-shard
// worker keeps pulling until shard 1 answers instead of computing on a stale
// block of shard 1.
func TestDuplicatePullRespCountsOnce(t *testing.T) {
	mdl := testModel(t, 1)
	ranges, err := ps.ShardRanges(mdl.Dim(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := New(Config{
		Shards: ranges, Model: mdl, Scheme: scheme.Config{Base: scheme.ASP},
		Compute: ComputeModel{Base: time.Second, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wk.Init(&manualCtx{rng: rand.New(rand.NewSource(1))})
	wk.Receive(node.Scheduler, &msg.Start{})
	for range 2 {
		wk.Receive(node.ServerID(0), &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, ranges[0].Len())})
	}
	if wk.st != statePulling {
		t.Fatalf("after shard 0 answered twice: state %d, want still pulling", wk.st)
	}
	wk.Receive(node.ServerID(1), &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, ranges[1].Len())})
	if wk.st != stateComputing {
		t.Fatalf("after both shards answered: state %d, want computing", wk.st)
	}
}

// FuzzPushReply feeds a worker in the middle of a pull or push round
// arbitrary replies: any sender, a Seq from the previous, current or next
// round, any Version, and any number of values. cfg picks one to three
// shards, ASP (a fused push round) or BSP (not fused), and a pull round or a
// push round; each four bytes of script are one reply. The worker must not
// panic, must complete the round only once every shard has answered the
// round's Seq (with a full-length block on a pull or fused push round), and
// may only write the answering shard's range of its parameters — and nothing
// at all once the round is over.
func FuzzPushReply(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 5, 8})
	f.Add(uint8(1), []byte{0, 1, 5, 4, 1, 1, 6, 4})
	f.Add(uint8(2), []byte{2, 1, 0, 2, 1, 1, 7, 3, 0, 1, 7, 3, 0, 2, 1, 3})
	f.Add(uint8(5), []byte{0, 1, 5, 0, 1, 0, 5, 0, 1, 1, 9, 9, 3, 1, 1, 1})
	f.Add(uint8(10), []byte{0, 1, 1, 4, 0, 1, 1, 4, 1, 1, 1, 4})
	f.Fuzz(func(t *testing.T, cfg uint8, script []byte) {
		mdl := testModel(t, 1)
		n := 1 + int(cfg%3)
		ranges, err := ps.ShardRanges(mdl.Dim(), n)
		if err != nil {
			t.Fatal(err)
		}
		base := scheme.ASP
		if cfg&4 != 0 {
			base = scheme.BSP
		}
		pull := cfg&8 != 0
		wk, err := New(Config{
			Shards: ranges, Model: mdl, Scheme: scheme.Config{Base: base},
			Compute: ComputeModel{Base: time.Second, Speed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := &manualCtx{rng: rand.New(rand.NewSource(1))}
		wk.Init(ctx)
		wk.Receive(node.Scheduler, &msg.Start{}) // the pull round (Seq 1) is in flight
		if !pull {
			for si, r := range ranges {
				wk.Receive(node.ServerID(si), &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, r.Len())})
			}
			ctx.fire() // compute done: the push round (Seq 2) is in flight
			if wk.st != statePushing || wk.fused != (base == scheme.ASP) {
				t.Fatalf("state %d fused %v, want a push round in flight, fused under ASP", wk.st, wk.fused)
			}
		}
		// done reports whether the round under test has completed.
		done := func() bool {
			if pull {
				return wk.st != statePulling
			}
			return wk.IterationsDone() > 0
		}
		round, needBlock := wk.seq, pull || wk.fused
		answered := make([]bool, n)
		for k := 0; k+4 <= len(script); k += 4 {
			b := script[k : k+4]
			from := node.ServerID(int(b[0]) % (n + 1)) // server/n owns nothing
			if b[0]%7 == 6 {
				from = node.Scheduler
			}
			resp := &msg.PullResp{Seq: round + uint64(b[1]%3) - 1, Version: int64(int8(b[2])), Values: make([]float64, b[3]%10)}
			for i := range resp.Values {
				resp.Values[i] = float64(100 + k)
			}
			si := node.ServerIndex(from)
			if si >= 0 && si < n && resp.Seq == round && (!needBlock || len(resp.Values) == ranges[si].Len()) {
				answered[si] = true
			}
			doneBefore, w := done(), slices.Clone(wk.w)
			wk.Receive(from, resp)
			if wk.IterationsDone() > 1 {
				t.Fatalf("reply %d completed a second round", k/4)
			}
			if done() && !doneBefore && slices.Contains(answered, false) {
				t.Fatalf("reply %d completed the round, but shards answered %v", k/4, answered)
			}
			for i := range w {
				if w[i] == wk.w[i] {
					continue
				}
				if doneBefore || si < 0 || si >= n || i < ranges[si].Lo || i >= ranges[si].Hi {
					t.Fatalf("reply %d from %s wrote w[%d] (shards %v, round done %v)", k/4, from, i, ranges, doneBefore)
				}
			}
		}
	})
}
