package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
	"specsync/internal/worker"
)

// outcome is what one cluster run did, whichever runtime carried it.
type outcome struct {
	iters              int64 // iterations completed (TCP: inside the window)
	wireBytes          int64
	frames, dataFrames int64
	gapsMs             []float64 // gaps between one worker's consecutive completions
	finalLoss          float64
	resyncs, aborts    int64
	stalenessMean      float64

	// DES only (a TCP workload takes these from its DES twin).
	virtual       time.Duration
	itersAtTarget int64
	converged     bool
	digest        string
	events        int64
}

// round is one sample of a workload: one set-up and one measured window.
type round struct {
	outcome
	setup, build, connect, warmup time.Duration

	wall, cpu time.Duration
	alloc     uint64
	gcs       uint64
	slices    []slice // TCP only: the window cut into short stretches

	attempted, failed int64
	problems          []string // failed correctness checks
}

func (r *round) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// edge is the state of the cost counters at one edge of the window.
type edge struct {
	sample
	frames, bytes, dataFrames int64
}

// recorder is the untraced run's only instrument: each worker appends the
// time of every completed iteration to its own preallocated slice; the
// goroutine whose completion is the window's first or last reads the cost
// counters, and the one whose completion ends a slice reads the two clocks.
type recorder struct {
	ns         *nodeSet
	done       [][]time.Time
	count      atomic.Int64
	from, to   int64 // cluster-wide completion counts that open and close the window
	every      int64 // completions per slice
	open, shut edge
	marks      []mark // marks[i] is written by whoever completes iteration from+i*every
	stopped    chan struct{}
}

func newRecorder(ns *nodeSet, workers int, perWorker, from, to, every int64) *recorder {
	rec := &recorder{ns: ns, from: from, to: to, every: every, done: make([][]time.Time, workers)}
	rec.marks = make([]mark, (to-from)/every+1)
	for i := range rec.done {
		rec.done[i] = make([]time.Time, 0, perWorker)
	}
	// Sized to the number of sends: each worker reports its stop once.
	rec.stopped = make(chan struct{}, workers)
	return rec
}

func (rec *recorder) edge() edge {
	e := edge{sample: takeSample()}
	e.frames, e.bytes, e.dataFrames = tallyFrames(rec.ns.transfer)
	return e
}

func (rec *recorder) complete(worker int) {
	rec.done[worker] = append(rec.done[worker], time.Now())
	n := rec.count.Add(1)
	switch n {
	case rec.from:
		rec.open = rec.edge()
	case rec.to:
		rec.shut = rec.edge()
	}
	if n >= rec.from && n <= rec.to && (n-rec.from)%rec.every == 0 {
		rec.marks[(n-rec.from)/rec.every] = takeMark()
	}
}

// tapHandler is the completion tap around a worker: after each Receive it
// checks whether the worker finished an iteration.
type tapHandler struct {
	inner   node.Handler
	wk      *worker.Worker
	rec     *recorder
	index   int
	last    int64
	stopped bool
}

func (t *tapHandler) Init(ctx node.Context) { t.inner.Init(ctx) }

func (t *tapHandler) Receive(from node.ID, m wire.Message) {
	t.inner.Receive(from, m)
	if d := t.wk.IterationsDone(); d != t.last {
		t.last = d
		t.rec.complete(t.index)
	}
	if !t.stopped && t.wk.Stopped() {
		t.stopped = true
		t.rec.stopped <- struct{}{}
	}
}

const sendFailures = "specsync_live_send_failures_total"

// runTCPRound builds one loopback cluster — every node a live.TCPHost on
// 127.0.0.1:0 in this process, the cmd/specsync-node assembly — and drives
// its closed loop (each worker starts its next iteration when its push is
// acked) through warm-up, the measured window and the pad. tr is nil for an
// untraced round.
func runTCPRound(sp spec, seed int64, tr *tracer) (*round, error) {
	if n := runtime.NumCPU(); sp.workers > n {
		return nil, fmt.Errorf("%s: %d workers on %d processors: a closed loop wider than the machine measures the run queue, not the protocol", sp.name, sp.workers, n)
	}
	r := &round{}
	t0 := time.Now()
	in, err := sp.inputs(seed)
	if err != nil {
		return nil, err
	}
	perWorker := sp.warm + sp.budget + sp.pad
	ns, err := buildNodes(sp, in, nodeOptions{maxIters: perWorker})
	if err != nil {
		return nil, err
	}
	r.build = time.Since(t0)

	from := int64(sp.workers) * sp.warm
	window := int64(sp.workers) * sp.budget
	rec := newRecorder(ns, sp.workers, perWorker, from, from+window, sliceSize(sp.slice, window))
	hosts := map[node.ID]*live.TCPHost{}
	var order []node.ID // scheduler first: closing it first stops new re-syncs
	closeAll := func() {
		for _, id := range order {
			hosts[id].Close()
		}
		order = nil
	}
	defer closeAll()
	addHost := func(id node.ID, h node.Handler) error {
		host, err := live.NewTCPHost(live.TCPHostConfig{
			ID: id, Handler: h, ListenAddr: "127.0.0.1:0", Registry: msg.Registry(),
			Seed: seed, Transfer: ns.codecs.Tap(ns.transfer), Metrics: ns.obs.Registry(),
		})
		if err != nil {
			return err
		}
		hosts[id] = host
		order = append(order, id)
		return nil
	}
	wrap := func(layer string, id node.ID, h node.Handler, wk *worker.Worker) node.Handler {
		if tr == nil {
			return h
		}
		return tr.wrap(layer, id, h, wk, int(perWorker)*40)
	}
	if err := addHost(node.Scheduler, wrap("core", node.Scheduler, ns.sched, nil)); err != nil {
		return nil, err
	}
	// The scheduler's Init tries to start workers it has no address for yet.
	// Let it finish now, so that those failed sends are counted before the
	// run and never race the address book below.
	hosts[node.Scheduler].Do(func() {})
	for i, wk := range ns.workers {
		id := node.WorkerID(i)
		tap := &tapHandler{inner: wrap("worker", id, wk, wk), wk: wk, rec: rec, index: i}
		if err := addHost(id, tap); err != nil {
			return nil, err
		}
	}
	for i, srv := range ns.servers {
		id := node.ServerID(i)
		if err := addHost(id, wrap("ps", id, srv, nil)); err != nil {
			return nil, err
		}
	}
	for id, h := range hosts {
		for peer, ph := range hosts {
			if peer != id {
				h.AddPeer(peer, ph.Addr())
			}
		}
	}
	// Dial every connection the protocol uses before the first iteration, so
	// connect cost is its own figure. Every handler ignores a stray
	// heartbeat.
	for i := range ns.workers {
		w := node.WorkerID(i)
		hosts[w].Send(node.Scheduler, &msg.Heartbeat{})
		hosts[node.Scheduler].Send(w, &msg.Heartbeat{})
		for s := range ns.servers {
			hosts[w].Send(node.ServerID(s), &msg.Heartbeat{})
			hosts[node.ServerID(s)].Send(w, &msg.Heartbeat{})
		}
	}
	r.connect = time.Since(t0) - r.build
	failedBefore := ns.obs.Registry().SumCounters(sendFailures)

	for i := range ns.workers {
		hosts[node.Scheduler].Send(node.WorkerID(i), &msg.Start{})
	}
	deadline := time.After(150 * time.Second)
	for range ns.workers {
		select {
		case <-rec.stopped:
		case <-deadline:
			r.attempted = int64(sp.workers) * perWorker
			r.failed = r.attempted - rec.count.Load()
			r.problemf("timed out with %d of %d iterations acked", rec.count.Load(), r.attempted)
			return r, nil
		}
	}
	failedSends := ns.obs.Registry().SumCounters(sendFailures) - failedBefore
	resyncs := ns.sched.ReSyncsSent()
	closeAll() // event loops are stopped from here on: handler state is safe to read

	r.setup = rec.open.at.Sub(t0)
	r.warmup = r.setup - r.build - r.connect
	r.iters = rec.to - rec.from
	r.wall = rec.shut.at.Sub(rec.open.at)
	r.cpu = rec.shut.cpu - rec.open.cpu
	r.alloc = rec.shut.alloc - rec.open.alloc
	r.gcs = rec.shut.gcs - rec.open.gcs
	r.wireBytes = rec.shut.bytes - rec.open.bytes
	r.frames = rec.shut.frames - rec.open.frames
	r.dataFrames = rec.shut.dataFrames - rec.open.dataFrames
	r.slices = slicesBetween(rec.marks, rec.every)
	r.gapsMs = completionGaps(rec.done, rec.open.at, rec.shut.at)
	r.resyncs = resyncs
	if st := ns.obs.Summary().Staleness; st.Count > 0 {
		r.stalenessMean = st.Sum / float64(st.Count)
	}

	// Correctness: every iteration acked, no push lost or applied twice, no
	// send failed, and the model the budget bought is sane.
	r.attempted = int64(sp.workers) * perWorker
	for i, wk := range ns.workers {
		r.aborts += wk.Aborts()
		if d := wk.IterationsDone(); d != perWorker {
			r.failed += perWorker - d
			r.problemf("worker %d acked %d of %d iterations", i, d, perWorker)
		}
	}
	checkPushes(r, ns.serverPushes(), r.attempted*int64(len(ns.servers)))
	if failedSends != 0 {
		r.problemf("%s = %d during the run", sendFailures, failedSends)
	}
	r.finalLoss = in.wl.Model.EvalLoss(ns.assemble(in.wl.Model.Dim()))
	ceiling := sp.lossCeiling * in.wl.Model.EvalLoss(in.initVec)
	if math.IsNaN(r.finalLoss) || math.IsInf(r.finalLoss, 0) || r.finalLoss > ceiling {
		r.problemf("final eval loss %g is not under the ceiling %g (%g x the initial loss)", r.finalLoss, ceiling, sp.lossCeiling)
	}
	return r, nil
}

// checkPushes is the no-lost-no-double-push check: the servers must have
// applied exactly one push per iteration and shard.
func checkPushes(r *round, got, want int64) {
	if got != want {
		r.problemf("servers applied %d pushes, want %d (workers x iterations x shards)", got, want)
		if r.failed == 0 {
			r.failed = 1
		}
	}
}

// completionGaps lists the gaps (ms) between one worker's consecutive
// completions inside the window.
func completionGaps(done [][]time.Time, open, shut time.Time) (gapsMs []float64) {
	for _, ts := range done {
		for i := 1; i < len(ts); i++ {
			if !ts[i-1].Before(open) && !ts[i].After(shut) {
				gapsMs = append(gapsMs, float64(ts[i].Sub(ts[i-1]))/float64(time.Millisecond))
			}
		}
	}
	return gapsMs
}
