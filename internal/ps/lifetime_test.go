package ps

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// sent is one Send as the runtimes perform it: encoded before Send returns.
type sent struct {
	to    node.ID
	frame []byte
}

// marshalCtx is a node.Context whose Send marshals at call time and keeps the
// bytes, like every runtime's, so a test sees exactly what left the node.
type marshalCtx struct {
	id   node.ID
	out  []sent
	logs int
}

func (c *marshalCtx) Self() node.ID  { return c.id }
func (c *marshalCtx) Now() time.Time { return time.Unix(0, 0) }
func (c *marshalCtx) Send(to node.ID, m wire.Message) {
	c.out = append(c.out, sent{to: to, frame: wire.Marshal(m)})
}
func (c *marshalCtx) After(time.Duration, func()) node.CancelFunc { return func() {} }
func (c *marshalCtx) Rand() *rand.Rand                            { return nil }
func (c *marshalCtx) Logf(string, ...any)                         { c.logs++ }

// scribble overwrites every slice of a message the way a runtime's reuse of
// it would: the next frame decoded into it, or the race-build poison.
func scribble(m wire.Message) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch s := v.Field(i).Interface().(type) {
		case []float64:
			for j := range s {
				s[j] = math.NaN()
			}
		case []byte:
			for j := range s {
				s[j] = 0xFF
			}
		case []int32:
			for j := range s {
				s[j] = -1
			}
		}
	}
}

func lifetimeServer(t *testing.T, mut func(*Config)) (*Server, *marshalCtx) {
	t.Helper()
	sgd, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.5), Momentum: 0.5, Clip: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Range: Range{0, 4}, Init: tensor.Vec{1, 2, 3, 4}, Optimizer: sgd}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &marshalCtx{id: node.ServerID(0)}
	srv.Init(ctx)
	return srv, ctx
}

// TestServerKeepsNothingOfAReceivedMessage: a shard fed a stream of pushes,
// each overwritten as soon as Receive returns, ends with the parameters and
// the sent bytes (push replies with and without the block, pull responses,
// forwarded ReplApplies) of a twin whose messages were left alone — plain,
// as a replicated primary, and with clone dedup on. This is node.Handler's
// ownership rule from the handler's side.
func TestServerKeepsNothingOfAReceivedMessage(t *testing.T) {
	rawPayload := codec.EncodePayload(codec.Raw{}, []float64{1, -1, 2, -2}, nil, nil, nil)
	stream := func() []wire.Message {
		return []wire.Message{
			&msg.CloneNotice{Slot: 2, Target: 1},
			&msg.PushReq{Seq: 1, Iter: 0, Dense: []float64{3, 0, -4, 1}},
			&msg.PushReq{Seq: 2, Iter: 1, PullVersion: 1, IsSparse: true, SparseIdx: []int32{0, 3}, SparseVal: []float64{5, -6}, Pull: true},
			&msg.PushReqV2{Seq: 3, Iter: 2, PullVersion: 1, Codec: uint8(codec.IDRaw), Payload: bytes.Clone(rawPayload), Pull: true},
			&msg.PushReq{Seq: 4, Iter: 2, PullVersion: 2, Dense: []float64{9, 9, 9, 9}, Pull: true}, // a retry of iter 2: deduped where dedup is on
			&msg.PushReq{Seq: 5, Iter: 3, PullVersion: 3, Dense: []float64{0.5, 0.25, 0, -1}},
			&msg.PullReq{Seq: 6},
		}
	}
	variants := map[string]func(*Config){
		"plain":      nil,
		"replicated": nil,
		"clone-dedup": func(c *Config) {
			c.DedupPushes = true
			c.CloneBase = 2
		},
	}
	for name, mut := range variants {
		scribbled, scribbledCtx := lifetimeServer(t, mut)
		intact, intactCtx := lifetimeServer(t, mut)
		if name == "replicated" {
			backups := []node.ID{node.ReplicaID(0, 1), node.ReplicaID(0, 2)}
			scribbled.SetBackups(backups)
			intact.SetBackups(backups)
		}
		for i, m := range stream() {
			from := node.WorkerID(1)
			if i == 4 {
				from = node.WorkerID(2) // the clone slot under clone-dedup
			}
			scribbled.Receive(from, m)
			scribble(m)
			intact.Receive(from, stream()[i])
		}
		if !reflect.DeepEqual(scribbled.Params(), intact.Params()) {
			t.Errorf("%s: params %v, want %v", name, scribbled.Params(), intact.Params())
		}
		if !reflect.DeepEqual(scribbledCtx.out, intactCtx.out) {
			t.Errorf("%s: sent frames differ from the unscribbled twin's", name)
		}
		if name == "replicated" {
			if fwd, _, _ := scribbled.ReplStats(); fwd == 0 {
				t.Errorf("%s: nothing was forwarded", name)
			}
		}
		for _, p := range scribbled.Params() {
			if math.IsNaN(p) {
				t.Fatalf("%s: a scribbled value reached the parameters: %v", name, scribbled.Params())
			}
		}
	}
}

// TestServerDropsMalformedSparsePush: a sparse push whose indices do not fit
// the shard, or whose slices disagree, used to index out of range inside the
// optimizer. Each is dropped unacknowledged and the shard keeps serving.
func TestServerDropsMalformedSparsePush(t *testing.T) {
	malformed := map[string]*msg.PushReq{
		"index past the shard": {Seq: 1, IsSparse: true, SparseIdx: []int32{1, 4}, SparseVal: []float64{1, 1}},
		"negative index":       {Seq: 1, IsSparse: true, SparseIdx: []int32{-1, 2}, SparseVal: []float64{1, 1}},
		"more indices":         {Seq: 1, IsSparse: true, SparseIdx: []int32{0, 1, 2}, SparseVal: []float64{1}},
		"more values":          {Seq: 1, IsSparse: true, SparseIdx: []int32{0}, SparseVal: []float64{1, 1}},
		"unsorted":             {Seq: 1, IsSparse: true, SparseIdx: []int32{2, 1}, SparseVal: []float64{1, 1}},
	}
	for name, bad := range malformed {
		srv, ctx := lifetimeServer(t, nil)
		srv.Receive(node.WorkerID(0), bad)
		if srv.Version() != 0 || len(ctx.out) != 0 || ctx.logs != 1 {
			t.Errorf("%s: version %d, %d sends, %d log lines; want dropped and logged", name, srv.Version(), len(ctx.out), ctx.logs)
		}
		srv.Receive(node.WorkerID(0), &msg.PushReq{Seq: 2, IsSparse: true, SparseIdx: []int32{3}, SparseVal: []float64{1}})
		if srv.Version() != 1 || len(ctx.out) != 1 || srv.Params()[3] == 4 {
			t.Errorf("%s: the shard stopped serving after the bad push", name)
		}

		// The same body arriving on the replication stream.
		backup, bctx := lifetimeServer(t, func(c *Config) { c.Replica = true })
		backup.Receive(node.ServerID(0), &msg.ReplApply{Version: 1, Body: msg.ReplBodySparse, Idx: bad.SparseIdx, Grad: bad.SparseVal})
		if backup.Version() != 0 || bctx.logs != 1 || !reflect.DeepEqual(backup.Params(), tensor.Vec{1, 2, 3, 4}) {
			t.Errorf("%s: backup applied a malformed ReplApply (version %d, params %v)", name, backup.Version(), backup.Params())
		}
	}
}
