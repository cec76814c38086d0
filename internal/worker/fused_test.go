package worker

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/wire"
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
// round, any Version, and either a PullResp with any number of values or a
// PullRespV2 — a raw block of any length, or a delta against the block the
// worker holds, against a wrong Base, with an out-of-range or repeated index,
// with its values cut short, or with no Base at all. cfg picks one to three
// shards, ASP (a fused push round) or BSP (not fused), a pull round or a push
// round, and a raw or a top-k worker; each four bytes of script are one
// reply. The worker must not panic, must complete the round only once every
// shard has answered the round's Seq (with a full-length block on a pull or
// fused push round), must leave its parameters untouched when it refuses a
// reply, and may only write the answering shard's range of them — and
// nothing at all once the round is over.
func FuzzPushReply(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 5, 8})
	f.Add(uint8(1), []byte{0, 1, 5, 4, 1, 1, 6, 4})
	f.Add(uint8(2), []byte{2, 1, 0, 2, 1, 1, 7, 3, 0, 1, 7, 3, 0, 2, 1, 3})
	f.Add(uint8(5), []byte{0, 1, 5, 0, 1, 0, 5, 0, 1, 1, 9, 9, 3, 1, 1, 1})
	f.Add(uint8(10), []byte{0, 1, 1, 4, 0, 1, 1, 4, 1, 1, 1, 4})
	// PullRespV2 replies to a fused round: each delta form, then a valid one.
	f.Add(uint8(16), []byte{0, 1, 3, 0xA0, 0, 1, 3, 0xB0, 0, 1, 3, 0xC0, 0, 1, 3, 0xD0, 0, 1, 3, 0xE0, 0, 1, 3, 0xF0, 0, 1, 3, 0x90})
	f.Add(uint8(17), []byte{0, 1, 2, 0x84, 1, 1, 2, 0x90, 0, 1, 2, 0x85})
	f.Add(uint8(24), []byte{0, 1, 2, 0x90, 0, 1, 2, 0x84})
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
		var cc codec.Config
		if cfg&16 != 0 {
			cc = codec.Config{Name: "topk"}
		}
		wk, err := New(Config{
			Shards: ranges, Model: mdl, Scheme: scheme.Config{Base: base}, Codec: cc,
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
			si := node.ServerIndex(from)
			seq, version := round+uint64(b[1]%3)-1, int64(int8(b[2]))
			var resp wire.Message
			valid := false // a block the worker must take, were it needed
			if b[3] < 0x80 {
				r := &msg.PullResp{Seq: seq, Version: version, Values: make([]float64, b[3]%10)}
				for i := range r.Values {
					r.Values[i] = float64(100 + k)
				}
				resp, valid = r, si >= 0 && si < n && len(r.Values) == ranges[si].Len()
			} else {
				r, ok := v2Reply(wk, si, b, float64(100+k))
				r.Seq, r.Version = seq, version
				resp, valid = r, ok
			}
			doneBefore, pending, w, versions := done(), wk.pending, slices.Clone(wk.w), slices.Clone(wk.pullVersions)
			expect := !doneBefore && si >= 0 && si < n && seq == round && !answered[si] && (!needBlock || valid)
			wk.Receive(from, resp)
			if wk.IterationsDone() > 1 {
				t.Fatalf("reply %d completed a second round", k/4)
			}
			if taken := wk.pending < pending || done() != doneBefore; taken != expect {
				t.Fatalf("reply %d (%T) from %s: taken %v, want %v (round done %v, shards answered %v)", k/4, resp, from, taken, expect, doneBefore, answered)
			}
			if expect {
				answered[si] = true
			}
			if done() && !doneBefore && slices.Contains(answered, false) {
				t.Fatalf("reply %d completed the round, but shards answered %v", k/4, answered)
			}
			for i := range w {
				if w[i] == wk.w[i] {
					continue
				}
				if !expect || !needBlock || i < ranges[si].Lo || i >= ranges[si].Hi {
					t.Fatalf("reply %d (%T) from %s wrote w[%d] (shards %v, taken %v, round done %v)", k/4, resp, from, i, ranges, expect, doneBefore)
				}
			}
			if !needBlock && !slices.Equal(versions, wk.pullVersions) {
				t.Fatalf("reply %d stored no block but moved the held versions %v to %v", k/4, versions, wk.pullVersions)
			}
		}
	})
}

// v2Reply builds the PullRespV2 a script reply b asks of shard si, and
// whether its block is one the worker must take. b[3]'s bits 4–6 pick the
// form; its low bits size a raw block and b[2] places a delta's entries.
func v2Reply(wk *Worker, si int, b []byte, val float64) (*msg.PullRespV2, bool) {
	size, have, held := 4, int64(0), false
	if si >= 0 && si < len(wk.shards) {
		size, have, held = wk.shards[si].Len(), wk.pullVersions[si], wk.havePulled[si]
	}
	at := int(b[2]) % size
	entries := func(idx ...int) []byte {
		p := binary.AppendUvarint(nil, uint64(size))
		p = binary.AppendUvarint(p, uint64(len(idx)))
		prev := 0
		for _, i := range idx {
			p = binary.AppendUvarint(p, uint64(i-prev))
			prev = i
		}
		for range idx {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(val))
		}
		return p
	}
	delta := &msg.PullRespV2{Base: have, Codec: uint8(codec.IDDelta), Payload: entries(at)}
	switch b[3] >> 4 & 7 {
	case 0: // a raw block of any length
		vals := make([]float64, b[3]&15%10)
		for i := range vals {
			vals[i] = val
		}
		return &msg.PullRespV2{Base: -1, Codec: uint8(codec.IDRaw), Payload: codec.EncodePayload(codec.Raw{}, vals, nil, nil, nil)}, len(vals) == size
	case 1: // a delta against the block the worker holds
		return delta, held
	case 2:
		delta.Base++
	case 3:
		delta.Payload = entries(at, size)
	case 4:
		delta.Payload = entries(at, at)
	case 5:
		delta.Payload = delta.Payload[:len(delta.Payload)-1]
	case 6:
		delta.Base = -1
	case 7: // a raw block named as against a base
		delta.Codec = uint8(codec.IDRaw)
		delta.Payload = codec.EncodePayload(codec.Raw{}, make([]float64, size), nil, nil, nil)
	}
	return delta, false
}
