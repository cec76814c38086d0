package faults_test

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/transport"
	"specsync/internal/wire"
)

// reusedPush fills one PushReq value the way a worker refills its held
// request: round 0 is dense, round 1 sparse and asking for the shard's block,
// both into the same slices.
func reusedPush(req *msg.PushReq, round int) {
	*req = msg.PushReq{
		Seq: uint64(10 + round), Iter: int64(20 + round), PullVersion: int64(30 + round),
		Dense: req.Dense[:0], SparseIdx: req.SparseIdx[:0], SparseVal: req.SparseVal[:0],
	}
	if round == 0 {
		req.Dense = append(req.Dense, 1.5, -2.25, 3)
		return
	}
	req.IsSparse, req.Pull = true, true
	req.SparseIdx = append(req.SparseIdx, 0, 2)
	req.SparseVal = append(req.SparseVal, 0.5, -4)
}

// scribble overwrites every field and every slice element of req.
func scribble(req *msg.PushReq) {
	req.Seq, req.Iter, req.PullVersion = math.MaxUint64, -1, -1
	req.IsSparse, req.Pull = !req.IsSparse, !req.Pull
	for i := range req.Dense {
		req.Dense[i] = math.NaN()
	}
	for i := range req.SparseIdx {
		req.SparseIdx[i] = -1
	}
	for i := range req.SparseVal {
		req.SparseVal[i] = math.NaN()
	}
}

// sendRounds sends both rounds from one held message, scribbling over it as
// soon as each Send returns.
func sendRounds(send func(wire.Message)) {
	var req msg.PushReq
	for round := 0; round < 2; round++ {
		reusedPush(&req, round)
		send(&req)
		scribble(&req)
	}
}

// wantFrames is what the receiver must decode: each round once per copy.
func wantFrames(copies int) [][]byte {
	var req msg.PushReq
	var out [][]byte
	for round := 0; round < 2; round++ {
		reusedPush(&req, round)
		for c := 0; c < copies; c++ {
			out = append(out, wire.Marshal(&req))
		}
	}
	return out
}

// recorder keeps the encoding of every PushReq it receives (the message
// itself goes back to the runtime) and answers it, as a shard does.
type recorder struct {
	ctx    node.Context
	mu     sync.Mutex
	frames [][]byte
	done   chan struct{}
	want   int
}

func newRecorder(want int) *recorder { return &recorder{want: want, done: make(chan struct{})} }

func (r *recorder) Init(ctx node.Context) { r.ctx = ctx }

func (r *recorder) Receive(from node.ID, m wire.Message) { r.record(from, m) }

func (r *recorder) record(from node.ID, m wire.Message) {
	req, ok := m.(*msg.PushReq)
	if !ok {
		return
	}
	r.mu.Lock()
	r.frames = append(r.frames, wire.Marshal(req))
	if len(r.frames) == r.want {
		close(r.done)
	}
	r.mu.Unlock()
	if r.ctx != nil {
		r.ctx.Send(from, &msg.PullResp{Seq: req.Seq})
	}
}

func (r *recorder) check(t *testing.T, want [][]byte) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("received %d of %d messages", len(r.frames), r.want)
	}
	r.mu.Lock()
	got := slices.Clone(r.frames)
	r.mu.Unlock()
	slices.SortFunc(got, bytes.Compare)
	want = slices.Clone(want)
	slices.SortFunc(want, bytes.Compare)
	if !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("receiver decoded\n %x\nwant\n %x", got, want)
	}
}

// onInit is a sender node: it runs its script when the runtime starts it.
type onInit func(node.Context)

func (f onInit) Init(ctx node.Context)         { f(ctx) }
func (f onInit) Receive(node.ID, wire.Message) {}

// TestSenderMayReuseItsMessage licenses sender-held messages: every runtime's
// Send encodes before it returns, so a sender that overwrites its message the
// moment Send returns — every field and every slice element — still has the
// original decoded at the receiver.
func TestSenderMayReuseItsMessage(t *testing.T) {
	const sender, receiver = node.ID("worker/0"), node.ID("server/0")
	reg := msg.Registry()
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"des.Sim", func(t *testing.T) {
			rec := newRecorder(2)
			sim, err := des.New(des.Config{Registry: reg, Net: des.NetModel{Latency: time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			script := onInit(func(ctx node.Context) { sendRounds(func(m wire.Message) { ctx.Send(receiver, m) }) })
			if err := sim.AddNode(sender, script); err != nil {
				t.Fatal(err)
			}
			if err := sim.AddNode(receiver, rec); err != nil {
				t.Fatal(err)
			}
			sim.Init()
			sim.RunUntilIdle(time.Second)
			rec.check(t, wantFrames(1))
		}},
		{"live.Loopback", func(t *testing.T) {
			rec := newRecorder(2)
			script := onInit(func(ctx node.Context) { sendRounds(func(m wire.Message) { ctx.Send(receiver, m) }) })
			lb, err := live.NewLoopback(live.TCPHostConfig{Registry: reg}, map[node.ID]node.Handler{sender: script, receiver: rec})
			if err != nil {
				t.Fatal(err)
			}
			defer lb.Close()
			rec.check(t, wantFrames(1))
		}},
		{"transport.TCP", func(t *testing.T) {
			rec := newRecorder(2)
			dst, err := transport.ListenTCP(transport.TCPConfig{
				ID: receiver, ListenAddr: "127.0.0.1:0", Registry: reg, OnMessage: rec.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			src, err := transport.ListenTCP(transport.TCPConfig{
				ID: sender, Registry: reg, Peers: map[node.ID]string{receiver: dst.Addr()},
				OnMessage: func(node.ID, wire.Message) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			sendRounds(func(m wire.Message) {
				if err := src.Send(receiver, m); err != nil {
					t.Fatal(err)
				}
			})
			rec.check(t, wantFrames(1))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}
