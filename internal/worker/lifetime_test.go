package worker

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// manualCtx is a node.Context driven by hand: Send marshals at call time (as
// every runtime's does) and keeps the frame, After parks the callback until
// the test fires it.
type manualCtx struct {
	rng    *rand.Rand
	frames [][]byte
	timers []func()
}

func (c *manualCtx) Self() node.ID                  { return node.WorkerID(0) }
func (c *manualCtx) Now() time.Time                 { return time.Unix(0, 0) }
func (c *manualCtx) Send(_ node.ID, m wire.Message) { c.frames = append(c.frames, wire.Marshal(m)) }
func (c *manualCtx) After(_ time.Duration, f func()) node.CancelFunc {
	c.timers = append(c.timers, f)
	return func() {}
}
func (c *manualCtx) Rand() *rand.Rand    { return c.rng }
func (c *manualCtx) Logf(string, ...any) {}

// fire runs the callbacks parked so far.
func (c *manualCtx) fire() {
	timers := c.timers
	c.timers = nil
	for _, f := range timers {
		f()
	}
}

// scribble overwrites a pull response's block the way the runtime's reuse of
// the message would.
func scribble(m wire.Message) {
	switch mm := m.(type) {
	case *msg.PullResp:
		for i := range mm.Values {
			mm.Values[i] = math.NaN()
		}
	case *msg.PullRespV2:
		for i := range mm.Payload {
			mm.Payload[i] = 0xFF
		}
	}
}

// TestWorkerKeepsNothingOfAPullResponse: a worker whose replies are
// overwritten as soon as Receive returns holds the parameters, and pushes the
// gradients, of a twin whose replies were left alone — on the v1 path, where
// the second and third blocks ride the push replies, and on the codec path,
// where they ride them as deltas, each against the block kept from the one
// before.
// This is node.Handler's ownership rule from the worker's side.
func TestWorkerKeepsNothingOfAPullResponse(t *testing.T) {
	mdl := testModel(t, 1)
	dim := mdl.Dim()
	blocks := [2][]float64{make([]float64, dim), make([]float64, dim)}
	for i := 0; i < dim; i++ {
		blocks[0][i] = float64(i) - 2.5
		blocks[1][i] = blocks[0][i] + float64(i%3)
	}
	block := func(i int) []float64 { return append([]float64(nil), blocks[i]...) }
	// replies builds the server's side of two iterations afresh for each
	// twin, in the order the worker's requests (one Seq counter) ask for it.
	replies := map[string]func() []wire.Message{
		"v1": func() []wire.Message {
			return []wire.Message{
				&msg.PullResp{Seq: 1, Version: 1, Values: block(0)},
				&msg.PullResp{Seq: 2, Version: 2, Values: block(1)}, // fused push replies
				&msg.PullResp{Seq: 3, Version: 3, Values: block(1)},
			}
		},
		"v2 delta": func() []wire.Message {
			return []wire.Message{
				&msg.PullRespV2{Seq: 1, Version: 1, Base: -1, Codec: uint8(codec.IDRaw),
					Payload: codec.EncodePayload(codec.Raw{}, blocks[0], nil, nil, nil)},
				&msg.PullRespV2{Seq: 2, Version: 2, Base: 1, Codec: uint8(codec.IDDelta), // fused push replies
					Payload: codec.EncodePayload(codec.Delta{}, blocks[1], blocks[0], nil, nil)},
				&msg.PullRespV2{Seq: 3, Version: 3, Base: 2, Codec: uint8(codec.IDDelta),
					Payload: codec.EncodePayload(codec.Delta{}, blocks[1], blocks[1], nil, nil)},
			}
		},
	}
	run := func(script []wire.Message, v2, overwrite bool) (*Worker, *manualCtx) {
		cfg := Config{
			Shards: []ps.Range{{Lo: 0, Hi: dim}}, Model: mdl,
			Scheme:  scheme.Config{Base: scheme.ASP},
			Compute: ComputeModel{Base: time.Second, Speed: 1},
		}
		if v2 {
			cfg.Codec = codec.Config{Name: "delta"}
		}
		wk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &manualCtx{rng: rand.New(rand.NewSource(5))}
		wk.Init(ctx)
		wk.Receive(node.Scheduler, &msg.Start{})
		for _, m := range script {
			wk.Receive(node.ServerID(0), m)
			if overwrite {
				scribble(m)
			}
			ctx.fire() // compute done, if it started: the gradient is taken at w and pushed
		}
		return wk, ctx
	}
	for name, build := range replies {
		scribbled, sctx := run(build(), name != "v1", true)
		intact, ictx := run(build(), name != "v1", false)
		if scribbled.IterationsDone() != 2 {
			t.Fatalf("%s: %d iterations completed, want 2", name, scribbled.IterationsDone())
		}
		if !reflect.DeepEqual(scribbled.w, intact.w) || !reflect.DeepEqual([]float64(scribbled.w), blocks[1]) {
			t.Errorf("%s: w = %v, want %v", name, scribbled.w, blocks[1])
		}
		if !reflect.DeepEqual(sctx.frames, ictx.frames) {
			t.Errorf("%s: sent frames differ from the unscribbled twin's", name)
		}
	}
}
