package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
	"specsync/internal/worker"
)

// The traced run records a span around every call the runtime makes into a
// handler and every call a handler makes back out, all from this package:
// each node.Handler is wrapped in tracedHandler, which hands the inner
// handler a wrapped node.Context. Nothing inside the program under test is
// instrumented.

type spanName uint8

const (
	spanRecv spanName = iota // runtime -> Handler.Receive
	spanCb                   // runtime -> a Context.After callback
	spanSend                 // handler -> Context.Send
)

// span is one timed call. parent is the index (in the same node's buffer) of
// the Receive or callback that caused it, -1 for a root; worker and iter
// identify the training iteration it belongs to, read from the message's own
// fields where it has them.
type span struct {
	name       spanName
	kind       wire.Kind
	parent     int32
	worker     int32
	iter       int64
	start, end int64 // ns since the tracer's epoch
}

// nodeTrace is one node's span buffer. A node's callbacks are serialized by
// the runtime, so the buffer needs no lock; it is read after the run.
type nodeTrace struct {
	layer string // "worker", "ps" or "core"
	id    node.ID
	epoch time.Time
	spans []span
	open  int32 // innermost open span, -1 outside any callback

	// Worker nodes only: protocol waits, taken between the worker's own
	// calls (first pull request -> compute armed, first push -> notify).
	pullAt, pushAt       int64
	pullWaits, pushWaits []float64 // us
}

func (nt *nodeTrace) now() int64 { return int64(time.Since(nt.epoch)) }

func (nt *nodeTrace) begin(name spanName, kind wire.Kind, worker int32, iter int64) int32 {
	idx := int32(len(nt.spans))
	nt.spans = append(nt.spans, span{
		name: name, kind: kind, parent: nt.open, worker: worker, iter: iter, start: nt.now(),
	})
	nt.open = idx
	return idx
}

func (nt *nodeTrace) finish(idx int32) {
	nt.spans[idx].end = nt.now()
	nt.open = nt.spans[idx].parent
}

// tracedHandler decorates one node. wk is set for worker nodes, whose spans
// are tagged with the worker's current iteration.
type tracedHandler struct {
	inner node.Handler
	nt    *nodeTrace
	wk    *worker.Worker
}

func (h *tracedHandler) Init(ctx node.Context) {
	h.inner.Init(&tracedContext{Context: ctx, h: h})
}

func (h *tracedHandler) Receive(from node.ID, m wire.Message) {
	w, iter := h.ids(from, m)
	idx := h.nt.begin(spanRecv, m.Kind(), w, iter)
	h.inner.Receive(from, m)
	h.nt.finish(idx)
}

// ids reads the (worker, iteration) a message belongs to.
func (h *tracedHandler) ids(from node.ID, m wire.Message) (int32, int64) {
	if h.wk != nil {
		return int32(node.WorkerIndex(h.nt.id)), h.wk.IterationsDone()
	}
	iter := int64(-1)
	switch mm := m.(type) {
	case *msg.PushReq:
		iter = mm.Iter
	case *msg.PushReqV2:
		iter = mm.Iter
	case *msg.Notify:
		iter = mm.Iter
	case *msg.NotifyV2:
		iter = mm.Iter
	}
	return int32(node.WorkerIndex(from)), iter
}

// tracedContext is what the inner handler acts through.
type tracedContext struct {
	node.Context
	h *tracedHandler
}

func (c *tracedContext) Send(to node.ID, m wire.Message) {
	nt := c.h.nt
	w, iter := int32(-1), int64(-1)
	if nt.open >= 0 {
		w, iter = nt.spans[nt.open].worker, nt.spans[nt.open].iter
	}
	idx := nt.begin(spanSend, m.Kind(), w, iter)
	if c.h.wk != nil {
		switch m.Kind() {
		case msg.KindPullReq, msg.KindPullReqV2:
			if nt.pullAt == 0 {
				nt.pullAt = nt.spans[idx].start
			}
		case msg.KindPushReq, msg.KindPushReqV2:
			if nt.pushAt == 0 {
				nt.pushAt = nt.spans[idx].start
			}
		case msg.KindNotify, msg.KindNotifyV2:
			if nt.pushAt != 0 {
				nt.pushWaits = append(nt.pushWaits, float64(nt.spans[idx].start-nt.pushAt)/1e3)
				nt.pushAt = 0
			}
		}
	}
	c.Context.Send(to, m)
	nt.finish(idx)
}

func (c *tracedContext) After(d time.Duration, f func()) node.CancelFunc {
	nt := c.h.nt
	if c.h.wk != nil && nt.pullAt != 0 {
		// The worker arms its compute timer when the last shard answered.
		nt.pullWaits = append(nt.pullWaits, float64(nt.now()-nt.pullAt)/1e3)
		nt.pullAt = 0
	}
	return c.Context.After(d, func() {
		w, iter := int32(-1), int64(-1)
		if c.h.wk != nil {
			w, iter = int32(node.WorkerIndex(nt.id)), c.h.wk.IterationsDone()
		}
		idx := nt.begin(spanCb, 0, w, iter)
		f()
		nt.finish(idx)
	})
}

// tracer owns the span buffers of one traced cluster.
type tracer struct {
	epoch time.Time
	nodes []*nodeTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// wrap returns h decorated; wk is non-nil for worker nodes.
func (t *tracer) wrap(layer string, id node.ID, h node.Handler, wk *worker.Worker, spanHint int) node.Handler {
	nt := &nodeTrace{layer: layer, id: id, epoch: t.epoch, open: -1, spans: make([]span, 0, spanHint)}
	t.nodes = append(t.nodes, nt)
	return &tracedHandler{inner: h, nt: nt, wk: wk}
}

// spanStats is what the per-layer metrics are computed from.
type spanStats struct {
	// busy and self are total time by layer in callbacks (Receive and After
	// callbacks); self leaves out the Send calls made inside them.
	recvBusy, cbBusy, self map[string]time.Duration
	recvCount              map[string]int64
	sendTotal              time.Duration
	sendUs                 []float64 // one per Send
	applyUs, pullUs        []float64 // ps Receive of a push / of a pull
	pullWaits, pushWaits   []float64
	spans                  int
}

func newSpanStats() *spanStats {
	return &spanStats{
		recvBusy: map[string]time.Duration{}, cbBusy: map[string]time.Duration{},
		self: map[string]time.Duration{}, recvCount: map[string]int64{},
	}
}

// addTo folds this cluster's spans into st.
func (t *tracer) addTo(st *spanStats) {
	for _, nt := range t.nodes {
		st.spans += len(nt.spans)
		st.pullWaits = append(st.pullWaits, nt.pullWaits...)
		st.pushWaits = append(st.pushWaits, nt.pushWaits...)
		for _, s := range nt.spans {
			d := time.Duration(s.end - s.start)
			switch s.name {
			case spanSend:
				st.sendTotal += d
				st.sendUs = append(st.sendUs, float64(d)/1e3)
				if s.parent >= 0 {
					st.self[nt.layer] -= d
				}
			case spanRecv:
				st.recvBusy[nt.layer] += d
				st.self[nt.layer] += d
				st.recvCount[nt.layer]++
				if nt.layer == "ps" {
					switch s.kind {
					case msg.KindPushReq, msg.KindPushReqV2:
						st.applyUs = append(st.applyUs, float64(d)/1e3)
					case msg.KindPullReq, msg.KindPullReqV2:
						st.pullUs = append(st.pullUs, float64(d)/1e3)
					}
				}
			case spanCb:
				st.cbBusy[nt.layer] += d
				st.self[nt.layer] += d
			}
		}
	}
}

var spanLabels = [...]string{spanRecv: "recv", spanCb: "cb", spanSend: "send"}

// maxTraceEvents bounds the written file; the metrics always use every span.
const maxTraceEvents = 200000

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one row per node, complete ("X") events,
// with the causing span and the (worker, iteration) identifier in args.
func (t *tracer) writeChrome(path string, registry *wire.Registry) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	written := 0
	for tid, nt := range t.nodes {
		if written > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, nt.id)
		for i, s := range nt.spans {
			if written >= maxTraceEvents {
				break
			}
			written++
			name := nt.layer + "." + spanLabels[s.name]
			if s.name == spanSend {
				name = "send"
			}
			if s.kind != 0 {
				name += " " + registry.Name(s.kind)
			}
			fmt.Fprintf(w, `,{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d,"worker":%d,"iter":%d}}`,
				name, nt.layer, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.worker, s.iter)
		}
	}
	fmt.Fprint(w, "]}\n")
	return w.Flush()
}
