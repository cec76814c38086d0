package ps

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

const oracleDim = 64

// held is one worker's copy of the shard's block, built only from the
// replies it took.
type held struct {
	block   tensor.Vec
	version int64
	valid   bool
}

// oracle drives one shard the way three workers would and keeps each
// worker's block from the replies alone.
type oracle struct {
	t       *testing.T
	rng     *rand.Rand
	srv     *Server
	ctx     *marshalCtx
	workers [3]held
	seq     uint64
	iter    int64
	// full and delta count the block replies taken of each form.
	full, delta int
}

func newOracle(t *testing.T, momentum float64) *oracle {
	o := &oracle{t: t, rng: rand.New(rand.NewSource(7))}
	o.srv, o.ctx = o.shard(false, momentum)
	return o
}

// shard builds a shard over oracleDim values that answers in codec runs'
// reply rule.
func (o *oracle) shard(replica bool, momentum float64) (*Server, *marshalCtx) {
	sgd, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.1), Momentum: momentum, Clip: 4}, oracleDim)
	if err != nil {
		o.t.Fatal(err)
	}
	init := tensor.NewVec(oracleDim)
	for i := range init {
		init[i] = float64(i%7) - 3
	}
	srv, err := New(Config{Range: Range{Lo: 0, Hi: oracleDim}, Init: init, Optimizer: sgd, Replica: replica})
	if err != nil {
		o.t.Fatal(err)
	}
	ctx := &marshalCtx{id: node.ServerID(0)}
	srv.Init(ctx)
	return srv, ctx
}

// gradient draws a gradient that lists a few entries.
func (o *oracle) gradient() []float64 {
	g := make([]float64, oracleDim)
	for range 1 + o.rng.Intn(6) {
		g[o.rng.Intn(oracleDim)] = o.rng.NormFloat64()
	}
	return g
}

// push builds worker w's next push of the given kind, asking for the block.
func (o *oracle) push(w int, kind string) wire.Message {
	o.seq++
	o.iter++
	pv := o.workers[w].version
	g := o.gradient()
	switch kind {
	case "topk":
		return &msg.PushReqV2{Seq: o.seq, Iter: o.iter, PullVersion: pv, Codec: uint8(codec.IDTopK),
			Payload: codec.EncodePayload(codec.TopK{Frac: 0.05}, g, nil, nil, nil), Pull: true}
	case "q8":
		return &msg.PushReqV2{Seq: o.seq, Iter: o.iter, PullVersion: pv, Codec: uint8(codec.IDQ8),
			Payload: codec.EncodePayload(codec.Q8{Block: 16}, g, nil, nil, nil), Pull: true}
	case "dense":
		return &msg.PushReq{Seq: o.seq, Iter: o.iter, PullVersion: pv, Dense: g, Pull: true}
	default: // a v1 sparse push
		req := &msg.PushReq{Seq: o.seq, Iter: o.iter, PullVersion: pv, IsSparse: true, Pull: true}
		for i, v := range g {
			if v != 0 {
				req.SparseIdx, req.SparseVal = append(req.SparseIdx, int32(i)), append(req.SparseVal, v)
			}
		}
		return req
	}
}

// sparsePush builds worker w's next v1 sparse push of the entries idx.
func (o *oracle) sparsePush(w int, idx []int32) *msg.PushReq {
	o.seq++
	o.iter++
	req := &msg.PushReq{Seq: o.seq, Iter: o.iter, PullVersion: o.workers[w].version, IsSparse: true, Pull: true, SparseIdx: idx}
	for range idx {
		req.SparseVal = append(req.SparseVal, o.rng.NormFloat64())
	}
	return req
}

// span lists the indices lo..hi-1.
func span(lo, hi int32) []int32 {
	var idx []int32
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// send hands m from worker w to the primary and takes the reply into w's
// block unless lose is set. It returns the reply's form: "full", "delta" or
// "" for none.
func (o *oracle) send(w int, m wire.Message, lose bool) string {
	o.t.Helper()
	o.ctx.out = o.ctx.out[:0]
	o.srv.Receive(node.WorkerID(w), m)
	form := ""
	for _, out := range o.ctx.out {
		if out.to != node.WorkerID(w) {
			continue
		}
		reply, err := msg.Registry().Unmarshal(out.frame)
		if err != nil {
			o.t.Fatal(err)
		}
		form = o.take(w, reply, lose)
	}
	return form
}

// take applies one reply to worker w's block and checks the block against
// the shard's parameters, bit for bit.
func (o *oracle) take(w int, reply wire.Message, lose bool) string {
	o.t.Helper()
	h := &o.workers[w]
	next := tensor.NewVec(oracleDim)
	var version int64
	form := "full"
	switch r := reply.(type) {
	case *msg.PullResp:
		if r.Values == nil {
			return ""
		}
		copy(next, r.Values)
		version = r.Version
	case *msg.PullRespV2:
		version = r.Version
		if r.Base >= 0 {
			form = "delta"
			if !h.valid || r.Base != h.version || codec.ID(r.Codec) != codec.IDDelta {
				o.t.Fatalf("worker %d: %s reply against version %d, holds %d (valid %v)", w, codec.ID(r.Codec), r.Base, h.version, h.valid)
			}
			copy(next, h.block)
		}
		if err := codec.DecodePayload(codec.ID(r.Codec), r.Payload, next); err != nil {
			o.t.Fatalf("worker %d: %v", w, err)
		}
		if form == "delta" && len(r.Payload) >= 8*oracleDim {
			o.t.Fatalf("worker %d: a %d-byte delta is no shorter than the block", w, len(r.Payload))
		}
	}
	if form == "full" {
		o.full++
	} else {
		o.delta++
	}
	if lose {
		return form
	}
	h.block, h.version, h.valid = next, version, true
	if !slices.Equal(paramBits(h.block), paramBits(o.srv.Params())) || h.version != o.srv.Version() {
		o.t.Fatalf("worker %d built version %d %v from replies; the shard holds version %d %v",
			w, h.version, h.block, o.srv.Version(), o.srv.Params())
	}
	return form
}

// pull has worker w pull: a PullReqV2 naming the block it holds.
func (o *oracle) pull(w int) string {
	o.seq++
	have := int64(-1)
	if o.workers[w].valid {
		have = o.workers[w].version
	}
	return o.send(w, &msg.PullReqV2{Seq: o.seq, Have: have}, false)
}

// want fails the test unless got is the expected reply form.
func (o *oracle) want(step, got, want string) {
	o.t.Helper()
	if got != want {
		o.t.Fatalf("%s: a %q reply, want %q", step, got, want)
	}
}

// TestChangeLogOracle: three workers' interleaved top-k and v1 sparse pushes,
// and their pulls, go through a real shard, and after every reply the block a
// worker built only from replies equals the shard's parameters bit for bit.
// Replies are deltas exactly where the rule allows, and full blocks after a
// lost reply, a dense apply, a gap longer than the log, a restore and a
// promotion.
func TestChangeLogOracle(t *testing.T) {
	o := newOracle(t, 0)
	for w := range o.workers {
		o.want("first pull", o.pull(w), "full")
	}
	o.want("a push from the holder of the current block", o.send(0, o.push(0, "topk"), false), "delta")
	o.want("a push two versions on", o.send(1, o.push(1, "sparse"), false), "delta")

	// Interleaved traffic: every reply is checked inside send.
	kinds := []string{"topk", "sparse"}
	for range 300 {
		w := o.rng.Intn(len(o.workers))
		if o.rng.Intn(5) == 0 {
			o.pull(w)
			continue
		}
		o.send(w, o.push(w, kinds[o.rng.Intn(len(kinds))]), false)
	}
	if o.delta < 200 {
		t.Fatalf("%d delta and %d full replies over the interleaved pushes, want mostly deltas", o.delta, o.full)
	}

	// A lost reply: the shard recorded the block it sent, the worker still
	// holds the one before, and its retry names that one.
	o.send(2, o.push(2, "topk"), false)
	retry := o.push(2, "topk")
	o.want("the lost reply", o.send(2, retry, true), "delta")
	o.want("a retry with the old PullVersion", o.send(2, retry, false), "full")
	o.want("the push after it", o.send(2, o.push(2, "topk"), false), "delta")

	// A dense apply in between: v1 dense and q8 pushes write every entry,
	// and the log covers nothing across them, sparse applies after included.
	for _, dense := range []string{"dense", "q8"} {
		o.pull(0)
		o.want(dense+" push", o.send(1, o.push(1, dense), false), "full")
		o.want("a sparse push after it", o.send(1, o.push(1, "sparse"), false), "delta")
		o.want("a pull across a "+dense+" apply", o.pull(0), "full")
		o.want("the next push", o.send(0, o.push(0, "sparse"), false), "delta")
	}

	// A gap longer than the log: more than oracleDim indices written since
	// worker 0's block.
	o.pull(0)
	for written := 0; written <= oracleDim; {
		m := o.push(1, "sparse").(*msg.PushReq)
		written += len(m.SparseIdx)
		o.send(1, m, false)
	}
	o.want("a pull across a gap longer than the log", o.pull(0), "full")
	o.want("the next pull", o.pull(0), "delta")

	// A delta no shorter than the block goes full: with 64 one-byte index
	// deltas a block of 64 values costs 513 bytes, 56 entries 506, 57 entries
	// 515.
	for _, c := range []struct {
		entries int32
		want    string
	}{{56, "delta"}, {57, "full"}} {
		o.pull(0)
		o.send(1, o.sparsePush(1, span(0, c.entries/2)), false)
		o.send(1, o.sparsePush(1, span(c.entries/2, c.entries)), false)
		o.want(fmt.Sprintf("a pull across %d written entries", c.entries), o.pull(0), c.want)
	}

	// A restore forgets what every worker holds.
	o.srv.Restore(o.srv.Snapshot())
	for w := range o.workers {
		o.want("the first push after a restore", o.send(w, o.push(w, "topk"), false), "full")
	}
	o.want("the second push after a restore", o.send(0, o.push(0, "topk"), false), "delta")
}

// TestChangeLogRetainsUpToTheBlock: the log keeps the newest entries whose
// indices total at most the block length (two entries of four in a block of
// eight), across its compactions, and reaches back exactly that far.
func TestChangeLogRetainsUpToTheBlock(t *testing.T) {
	const n = 8
	var l changeLog
	for v := int64(1); v <= 40; v++ {
		l.add(v, span(int32(v%3), int32(v%3)+4), n) // four indices each
		for back := int64(0); back <= min(v, 4); back++ {
			idx, entries, ok := l.since(v, v-back)
			if want := back <= 2; ok != want || (ok && (entries != int(back) || len(idx) != 4*int(back))) {
				t.Fatalf("version %d, %d back: %d entries of %d indices, ok %v; want ok %v", v, back, entries, len(idx), ok, want)
			}
		}
	}
	if _, _, ok := l.since(41, 40); ok {
		t.Error("the log reaches past a version it did not see")
	}
	l.add(42, span(0, 4), n)
	if _, _, ok := l.since(42, 40); ok {
		t.Error("the log reaches back across a gap")
	}
	// Empty entries (a sparse push with nothing in this shard) count too.
	for v := int64(43); v < 1000; v++ {
		l.add(v, nil, n)
	}
	if _, _, ok := l.since(999, 999-n); !ok || len(l.ends) > 2*n+1 {
		t.Errorf("after empty entries: reaches back %d: %v, holds %d entries", n, ok, len(l.ends))
	}
	if _, _, ok := l.since(999, 999-n-1); ok {
		t.Errorf("after empty entries the log reaches back past %d of them", n)
	}
}

// TestChangeLogAfterPromotion: a backup replays the primary's forwards, and
// once promoted it holds no record of what any worker holds, so each worker's
// first reply from it is a full block; deltas follow, v1 pushes' replies
// included.
func TestChangeLogAfterPromotion(t *testing.T) {
	o := newOracle(t, 0)
	backup, backupCtx := o.shard(true, 0)
	o.srv.SetBackups([]node.ID{node.ReplicaID(0, 1)})
	forward := func() {
		for _, out := range o.ctx.out {
			if out.to != node.ReplicaID(0, 1) {
				continue
			}
			m, err := msg.Registry().Unmarshal(out.frame)
			if err != nil {
				t.Fatal(err)
			}
			backup.Receive(node.ServerID(0), m)
		}
	}
	for w := range o.workers {
		o.pull(w)
	}
	for i := range 30 {
		w := i % len(o.workers)
		o.send(w, o.push(w, "topk"), false)
		forward()
	}
	backup.Promote(nil)
	o.srv, o.ctx = backup, backupCtx
	for w := range o.workers {
		o.want("the first push to the promoted backup", o.send(w, o.push(w, "topk"), false), "full")
	}
	for w := range o.workers {
		o.want("the next push", o.send(w, o.push(w, "sparse"), false), "delta")
	}
}

// TestChangeLogForgetsOnRestore: a restore to an earlier version forgets the
// log too. Otherwise, with only dense writes back up to the old log's top, the
// next sparse apply would extend the old log, and a worker sent a block in
// between would get a delta that lacks the dense writes.
func TestChangeLogForgetsOnRestore(t *testing.T) {
	o := newOracle(t, 0)
	o.pull(0)
	snap := o.srv.Snapshot()
	for range 6 {
		o.send(1, o.push(1, "sparse"), false)
	}
	top := o.srv.Version()
	o.srv.Restore(snap)
	o.send(1, o.push(1, "dense"), false)
	o.want("a pull after the restore", o.pull(0), "full")
	for o.srv.Version() < top {
		o.send(1, o.push(1, "dense"), false)
	}
	o.send(1, o.push(1, "sparse"), false)
	o.want("a pull across the dense writes", o.pull(0), "full")
}

// TestRawRepliesStayFullBesideAStrayCodecPeer: in a raw run only a peer that
// sends codec-path messages gets replies by the rule, and a peer calling
// itself a worker of any index costs the shard one record: worker 0's v1
// replies stay full PullResps.
func TestRawRepliesStayFullBesideAStrayCodecPeer(t *testing.T) {
	o := newOracle(t, 0)
	stray := node.WorkerID(2_000_000_000)
	for i := range 20 {
		o.send(0, o.push(0, "sparse"), false)
		o.ctx.out = o.ctx.out[:0]
		o.seq++
		if i%2 == 0 {
			o.srv.Receive(stray, &msg.PullReqV2{Seq: o.seq, Have: o.srv.Version()})
		} else {
			o.srv.Receive(stray, &msg.PushReqV2{Seq: o.seq, Iter: int64(i), PullVersion: o.srv.Version(), Codec: uint8(codec.IDTopK),
				Payload: codec.EncodePayload(codec.TopK{Frac: 0.05}, o.gradient(), nil, nil, nil), Pull: true})
		}
		if len(o.ctx.out) != 1 || o.ctx.out[0].to != stray {
			t.Fatalf("the stray peer's message drew %d frames", len(o.ctx.out))
		}
	}
	if o.delta != 0 || o.full != 20 {
		t.Errorf("worker 0 took %d delta and %d full replies, want 20 full", o.delta, o.full)
	}
	if len(o.srv.replies.sent) != 1 {
		t.Errorf("the shard holds %d records, want the stray peer's one", len(o.srv.replies.sent))
	}
}

// TestChangeLogMomentumRepliesFull: with momentum every apply writes every
// entry, so no reply is a delta, and the blocks still match.
func TestChangeLogMomentumRepliesFull(t *testing.T) {
	o := newOracle(t, 0.9)
	for w := range o.workers {
		o.pull(w)
	}
	for i := range 60 {
		w := i % len(o.workers)
		o.want("a push under momentum", o.send(w, o.push(w, []string{"topk", "sparse"}[i%2]), false), "full")
	}
}

// TestDeltaReplyAllocatesNothing: a shard answering a top-k push with a
// delta, and a PullReqV2 with a delta or a full block, allocates nothing once
// its buffers have grown.
func TestDeltaReplyAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sgd, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.01)}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Range: Range{Lo: 0, Hi: 4096}, Init: make([]float64, 4096), Optimizer: sgd})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &lastReply{}
	srv.Init(ctx)
	g := make([]float64, 4096)
	for i := range g {
		g[i] = math.Sin(float64(i))
	}
	from := [2]node.ID{node.WorkerID(0), node.WorkerID(1)}
	pushes := [2]msg.PushReqV2{}
	for w := range pushes {
		pushes[w] = msg.PushReqV2{Codec: uint8(codec.IDTopK), Payload: codec.EncodePayload(codec.TopK{Frac: 0.05}, g, nil, nil, nil), Pull: true}
		srv.Receive(from[w], &msg.PullReqV2{Have: -1})
		pushes[w].PullVersion = srv.Version()
	}
	var pull msg.PullReqV2
	steps := []struct {
		name string
		run  func()
	}{
		{"fused push reply", func() {
			for w := range pushes {
				srv.Receive(from[w], &pushes[w])
				if ctx.delta != 1 {
					t.Fatalf("push reply is not a delta")
				}
				pushes[w].PullVersion = srv.Version()
			}
		}},
		{"delta pull", func() {
			pull = msg.PullReqV2{Have: pushes[0].PullVersion}
			srv.Receive(from[0], &pull)
			if ctx.delta != 1 {
				t.Fatalf("pull reply is not a delta")
			}
			pushes[0].PullVersion = srv.Version()
		}},
		{"full pull", func() {
			pull = msg.PullReqV2{Have: -1}
			srv.Receive(from[1], &pull)
			if ctx.delta != 0 {
				t.Fatalf("pull reply is a delta")
			}
			pushes[1].PullVersion = srv.Version()
		}},
	}
	for _, step := range steps {
		step.run()
		if allocs := testing.AllocsPerRun(50, step.run); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", step.name, allocs)
		}
	}
}

// lastReply is a node.Context that notes whether the last reply sent was a
// delta (1), a full block (0), or something else (-1), keeping nothing.
type lastReply struct{ delta int }

func (c *lastReply) Self() node.ID      { return node.ServerID(0) }
func (c *lastReply) Now() (t time.Time) { return t }
func (c *lastReply) Send(_ node.ID, m wire.Message) {
	c.delta = -1
	switch r := m.(type) {
	case *msg.PullRespV2:
		c.delta = 0
		if r.Base >= 0 {
			c.delta = 1
		}
	case *msg.PullResp:
		if r.Values != nil {
			c.delta = 0
		}
	}
}
func (c *lastReply) After(time.Duration, func()) node.CancelFunc { return func() {} }
func (c *lastReply) Rand() *rand.Rand                            { return nil }
func (c *lastReply) Logf(string, ...any)                         {}
