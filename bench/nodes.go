package main

import (
	"io"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/trace"
	"specsync/internal/worker"
)

// nodeSet is one cluster's handlers plus the accounting they share, built
// the way cmd/specsync-node (live) and cluster.Run (DES) build theirs.
type nodeSet struct {
	ranges   []ps.Range
	servers  []*ps.Server
	workers  []*worker.Worker
	sched    *core.Scheduler
	obs      *obs.Obs
	transfer *metrics.Transfer
	codecs   *codec.Stats
}

// nodeOptions are the few places where the live and the DES assembly differ.
type nodeOptions struct {
	maxIters int64
	tracer   trace.Tracer     // DES only: cluster.Run always collects events
	tuner    core.TunerConfig // DES only: bounds derived from the net model
}

func buildNodes(sp spec, in inputs, opt nodeOptions) (*nodeSet, error) {
	wl := in.wl
	ranges, err := ps.ShardRanges(wl.Model.Dim(), sp.serverCount())
	if err != nil {
		return nil, err
	}
	o := obs.New(obs.Options{})
	ns := &nodeSet{
		ranges:   ranges,
		obs:      o,
		transfer: metrics.NewTransfer(msg.IsControl),
		codecs:   codec.NewStats(msg.CodecLabeler(sp.codec.PushName(), sp.codec.PullName())),
	}
	registry := msg.Registry()
	o.Registry().SetCollector("transfer", func(w io.Writer) { ns.transfer.WritePrometheus(w, registry.Name) })
	o.Registry().SetCollector("codec", func(w io.Writer) { ns.codecs.WritePrometheus(w, registry.Name) })

	for i, r := range ranges {
		sgd, err := optimizer.NewSGD(optimizer.SGDConfig{
			Schedule: wl.Schedule, Momentum: wl.Momentum, Clip: wl.Clip,
		}, r.Len())
		if err != nil {
			return nil, err
		}
		srv, err := ps.New(ps.Config{
			Range: r, Init: in.initVec[r.Lo:r.Hi], Optimizer: sgd,
			Obs: o.Server(i), DeltaPull: sp.codec.UsesDelta(), CodecStats: ns.codecs,
		})
		if err != nil {
			return nil, err
		}
		ns.servers = append(ns.servers, srv)
	}
	var speeds []float64
	if sp.speeds != nil {
		speeds = sp.speeds(sp.workers)
	}
	for i := 0; i < sp.workers; i++ {
		speed := 1.0
		if speeds != nil {
			speed = speeds[i]
		}
		wk, err := worker.New(worker.Config{
			Index: i, Shards: ranges, Model: wl.Model, Scheme: specScheme,
			Compute:  worker.ComputeModel{Base: wl.IterTime, Speed: speed, JitterSigma: wl.JitterSigma},
			Tracer:   opt.tracer,
			Obs:      o.Worker(i),
			MaxIters: opt.maxIters, NumWorkers: sp.workers,
			Codec: sp.codec, CodecStats: ns.codecs,
		})
		if err != nil {
			return nil, err
		}
		ns.workers = append(ns.workers, wk)
	}
	ns.sched, err = core.NewScheduler(core.SchedulerConfig{
		Workers: sp.workers, Scheme: specScheme, InitialSpan: wl.IterTime,
		Tracer: opt.tracer, Obs: o.Scheduler(), Tuner: opt.tuner,
	})
	if err != nil {
		return nil, err
	}
	return ns, nil
}

// assemble copies every shard's parameters into one vector. Only call it
// once the nodes' event loops have stopped.
func (ns *nodeSet) assemble(dim int) []float64 {
	w := make([]float64, dim)
	for _, srv := range ns.servers {
		r := srv.Range()
		copy(w[r.Lo:r.Hi], srv.Params())
	}
	return w
}

func (ns *nodeSet) serverPushes() int64 {
	var n int64
	for _, srv := range ns.servers {
		_, p := srv.Stats()
		n += p
	}
	return n
}

// tallyFrames sums a transfer ledger: total frames and bytes, and the frames
// that carry parameter data.
func tallyFrames(t *metrics.Transfer) (frames, bytes, dataFrames int64) {
	for k, st := range t.Breakdown() {
		frames += st.Msgs
		bytes += st.Bytes
		if k == msg.KindPushReq || k == msg.KindPushReqV2 || k == msg.KindPullResp || k == msg.KindPullRespV2 {
			dataFrames += st.Msgs
		}
	}
	return frames, bytes, dataFrames
}

func usPerIter(d time.Duration, iters int64) float64 {
	return float64(d) / float64(time.Microsecond) / float64(iters)
}
