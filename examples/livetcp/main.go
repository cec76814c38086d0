// Live TCP example: run a real SpecSync cluster — parameter-server shards,
// workers, and the centralized scheduler — as separate TCP endpoints on
// loopback, training a linear model with real gradient computation and the
// full notify/re-sync protocol on the wire. This is the same code path as
// cmd/specsync-node, in one process for convenience.
//
//	go run ./examples/livetcp
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/core"
	"specsync/internal/live"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/wire"
	"specsync/internal/worker"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livetcp:", err)
		os.Exit(1)
	}
}

// probe is a read-only cluster member: on each Start trigger it pulls every
// shard and delivers the assembled parameter vector on snapshots.
type probe struct {
	ctx       node.Context
	ranges    []ps.Range
	dim       int
	seq       uint64
	pending   int
	w         []float64
	snapshots chan []float64
}

func (p *probe) Init(ctx node.Context) { p.ctx = ctx }

func (p *probe) Receive(from node.ID, m wire.Message) {
	switch mm := m.(type) {
	case *msg.Start: // trigger: pull all shards
		p.seq++
		p.pending = len(p.ranges)
		p.w = make([]float64, p.dim)
		for i := range p.ranges {
			p.ctx.Send(node.ServerID(i), &msg.PullReq{Seq: p.seq})
		}
	case *msg.PullResp:
		if mm.Seq != p.seq || p.pending == 0 {
			return
		}
		si := node.ServerIndex(from)
		if si < 0 || si >= len(p.ranges) {
			return
		}
		r := p.ranges[si]
		copy(p.w[r.Lo:r.Hi], mm.Values)
		p.pending--
		if p.pending == 0 {
			select {
			case p.snapshots <- p.w:
			default:
			}
		}
	}
}

func run() error {
	const (
		workers  = 4
		servers  = 2
		seed     = 11
		iterTime = 150 * time.Millisecond
		maxIters = 60
	)
	transfer := metrics.NewTransfer(msg.IsControl)
	sc := scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}

	wl, err := cluster.NewTiny(workers, seed)
	if err != nil {
		return err
	}
	ranges, err := ps.ShardRanges(wl.Model.Dim(), servers)
	if err != nil {
		return err
	}
	initVec := wl.Model.Init(rand.New(rand.NewSource(seed)))

	// Build every node; the loopback cluster hosts each on its own TCP
	// endpoint.
	handlers := map[node.ID]node.Handler{}
	for i := 0; i < servers; i++ {
		opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: wl.Schedule, Clip: wl.Clip}, ranges[i].Len())
		if err != nil {
			return err
		}
		handlers[node.ServerID(i)], err = ps.New(ps.Config{
			Range: ranges[i], Init: initVec[ranges[i].Lo:ranges[i].Hi], Optimizer: opt,
		})
		if err != nil {
			return err
		}
	}
	wks := make([]*worker.Worker, workers)
	for i := 0; i < workers; i++ {
		wk, err := worker.New(worker.Config{
			Index: i, Shards: ranges, Model: wl.Model, Scheme: sc,
			Compute:  worker.ComputeModel{Base: iterTime, Speed: 1, JitterSigma: 0.15},
			MaxIters: maxIters,
		})
		if err != nil {
			return err
		}
		wks[i] = wk
		handlers[node.WorkerID(i)] = wk
	}
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: workers, Scheme: sc, InitialSpan: iterTime,
	})
	if err != nil {
		return err
	}
	handlers[node.Scheduler] = sched
	// Monitor progress with a probe node that pulls the model over the real
	// protocol (no cross-goroutine peeking at server state).
	pr := &probe{ranges: ranges, dim: wl.Model.Dim(), snapshots: make(chan []float64, 1)}
	handlers[node.ProbeID] = pr

	// Every host knows every address before any Init runs, so the
	// scheduler's Init starts the workers.
	lb, err := live.NewLoopback(live.TCPHostConfig{Registry: msg.Registry(), Seed: seed, Transfer: transfer}, handlers)
	if err != nil {
		return err
	}
	defer lb.Close()
	fmt.Printf("live TCP cluster up: %d servers, %d workers, scheme %s\n", servers, workers, sc.Name())

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		done := int64(0)
		stopped := 0
		for _, wk := range wks {
			done += wk.IterationsDone()
			if wk.Stopped() {
				stopped++
			}
		}
		lb.Host(node.ProbeID).Inject(node.ProbeID, &msg.Start{}) // trigger a pull round
		select {
		case w := <-pr.snapshots:
			fmt.Printf("  iterations=%-5d loss=%.4f resyncs=%d epochs=%d\n",
				done, wl.Model.EvalLoss(w), sched.ReSyncsSent(), sched.Epoch())
		case <-time.After(2 * time.Second):
			fmt.Println("  (probe timed out)")
		}
		if stopped == workers {
			break
		}
	}

	data, control := transfer.Split()
	fmt.Printf("\nall workers finished %d iterations each\n", maxIters)
	fmt.Printf("wire traffic: %s parameter data, %s control (%.3f%%)\n",
		metrics.HumanBytes(data), metrics.HumanBytes(control),
		100*float64(control)/float64(data+control))
	return nil
}
