package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/model"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/tensor"
	"specsync/internal/trace"
)

const simSteps = "specsync_sim_steps_total"

// simConfig is the cluster.Run configuration of a workload's inputs with a
// per-worker iteration cap (0 = run to the convergence target).
func (sp spec) simConfig(in inputs, maxIters int64, o *obs.Obs) cluster.Config {
	cfg := cluster.Config{
		Workload: in.wl, Scheme: specScheme, Codec: sp.codec,
		Workers: sp.workers, Servers: sp.serverCount(), Seed: in.seed,
		MaxItersPerWorker: maxIters, KeepTrace: true, Obs: o,
		DisableHiccups: !sp.hiccups,
		// A capped run ends when its last worker stops; the bound only has
		// to be out of the way (probes keep the queue alive until then).
		MaxVirtual: time.Duration(4*maxIters)*in.wl.IterTime + 10*in.wl.EvalEvery,
	}
	if sp.speeds != nil {
		cfg.Speeds = sp.speeds(sp.workers)
	}
	if maxIters == 0 {
		cfg.MaxVirtual = 8 * time.Hour
	}
	return cfg
}

// pushTimeline derives the virtual-clock figures from the event trace: when
// the last worker finished, and the gaps between one worker's completions.
func pushTimeline(events []trace.Event, workers int) (last time.Duration, gapsMs []float64) {
	prev := make([]time.Time, workers)
	epoch := time.Unix(0, 0)
	for _, ev := range events {
		if ev.Kind != trace.KindPush || ev.Worker < 0 || ev.Worker >= workers {
			continue
		}
		if p := prev[ev.Worker]; !p.IsZero() {
			gapsMs = append(gapsMs, float64(ev.At.Sub(p))/float64(time.Millisecond))
		}
		prev[ev.Worker] = ev.At
		if d := ev.At.Sub(epoch); d > last {
			last = d
		}
	}
	return last, gapsMs
}

func stalenessMean(s *obs.Summary) float64 {
	if s == nil || s.Staleness.Count == 0 {
		return 0
	}
	return s.Staleness.Sum / float64(s.Staleness.Count)
}

// runCluster is one cluster.Run call, the program under test of the DES
// workloads.
func (sp spec) runCluster(in inputs, maxIters int64) (outcome, error) {
	o := obs.New(obs.Options{})
	res, err := cluster.Run(sp.simConfig(in, maxIters, o))
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		iters: res.TotalIters, itersAtTarget: res.TotalIters, converged: res.Converged,
		digest: res.ParamsDigest, finalLoss: res.FinalLoss,
		resyncs: res.ReSyncs, aborts: res.Aborts,
		events: o.Registry().SumCounters(simSteps), stalenessMean: stalenessMean(res.Obs),
	}
	out.frames, out.wireBytes, out.dataFrames = tallyFrames(res.Transfer)
	out.virtual, out.gapsMs = pushTimeline(res.Trace.Events(), sp.workers)
	if maxIters == 0 {
		// The stop condition is the target, not a budget.
		out.virtual, out.itersAtTarget = finalDecade(res, in.wl.TargetLoss)
	}
	return out, nil
}

// finalDecade measures a converged run over the last decade of its loss:
// from the last probe that still saw 10x the target to the start of the
// convergence streak, in virtual time and in cluster-wide iterations.
//
// The whole time-to-target would be the paper's figure, but on this
// substitute it is chaotic: 40 workers' first stale pushes blow the loss up
// by four orders of magnitude, the run is mostly the recovery from that, and
// whether a second blow-up happens on the way moves the total by +-30 %
// between node seeds (1h48m to 2h43m over seeds 11-20). The final decade is
// past the transients and repeats within +-1.5 % (36m10s to 37m34s, 5868 to
// 5934 iterations over the same seeds), so a change in how fast fresh
// gradients shrink the loss shows in it and a lucky seed does not.
func finalDecade(res *cluster.Result, target float64) (time.Duration, int64) {
	loss, iters := res.Loss.Snapshot(), res.IterSeries.Snapshot()
	var from time.Duration
	var itersFrom float64
	for i, p := range loss {
		if p.T > res.ConvergeTime {
			break
		}
		if p.V >= 10*target {
			from, itersFrom = p.T, iters[i].V
		}
	}
	return res.ConvergeTime - from, res.ItersAtConverge - int64(itersFrom)
}

// runSimRound is one DES sample: set-up (inputs plus a throw-away warm-up
// run of the same configuration at a small cap) and one measured run, single
// threaded. With tr set the measured run is the traced assembly instead of
// cluster.Run.
func runSimRound(sp spec, seed int64, tr *tracer) (*round, error) {
	r := &round{}
	t0 := time.Now()
	in, err := sp.inputs(seed)
	if err != nil {
		return nil, err
	}
	r.build = time.Since(t0)
	if _, err := sp.runCluster(in, sp.warm); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	r.warmup = r.setup - r.build

	// A DES run is cut into slices at the only place cluster.Run calls back
	// into its inputs: the model's Grad, once per iteration.
	var tap *gradTap
	if sp.slice > 0 {
		tap = &gradTap{Model: in.wl.Model, every: sp.slice, marks: make([]mark, 0, 1024)}
		in.wl.Model = tap
	}
	open := takeSample()
	var out outcome
	if tr != nil {
		out, err = sp.runAssembly(in, sp.budget, tr)
	} else {
		out, err = sp.runCluster(in, sp.budget)
	}
	if err != nil {
		return nil, err
	}
	shut := takeSample()

	r.outcome = out
	r.wall, r.cpu = shut.at.Sub(open.at), shut.cpu-open.cpu
	r.alloc, r.gcs = shut.alloc-open.alloc, shut.gcs-open.gcs
	if tap != nil {
		r.slices = tap.slices(mark{at: shut.at, cpu: shut.cpu})
	}

	r.attempted = out.iters
	if sp.budget > 0 {
		r.attempted = int64(sp.workers) * sp.budget
		if out.iters != r.attempted {
			r.failed = r.attempted - out.iters
			r.problemf("%d of %d iterations completed", out.iters, r.attempted)
		}
	} else if !out.converged {
		r.failed = 1
		r.problemf("did not reach the convergence target (final loss %g)", out.finalLoss)
	}
	if math.IsNaN(out.finalLoss) || math.IsInf(out.finalLoss, 0) {
		r.problemf("final eval loss %g is not finite", out.finalLoss)
	}
	return r, nil
}

// gradTap passes a model through unchanged and reads the two clocks every
// `every` gradient calls, i.e. every `every` worker iterations.
type gradTap struct {
	model.Model
	every, calls int64
	marks        []mark
}

func (t *gradTap) Grad(w tensor.Vec, b model.Batch) model.Update {
	if t.calls%t.every == 0 {
		t.marks = append(t.marks, takeMark())
	}
	t.calls++
	return t.Model.Grad(w, b)
}

// slices closes the last slice at end; it holds the iterations that were
// left over, and whatever the run did after its last gradient.
func (t *gradTap) slices(end mark) []slice {
	out := slicesBetween(append(t.marks, end), t.every)
	if n := int64(len(out)); n > 0 {
		out[n-1].iters = t.calls - t.every*(n-1)
	}
	return out
}

// twin replays a TCP workload's inputs in the DES at a fixed budget. Push
// arrival order on real sockets depends on the host's scheduler, so the live
// run has no exact figures; its twin does, and a protocol change that adds a
// round trip or loses a push moves them.
func (sp spec) twin(in inputs) (outcome, error) {
	// Modelled compute long enough for the network model's speculation
	// window bounds (4 x 250 us <= window <= IterTime/8) to be non-empty, and
	// little jitter: the twin's figures should move with the protocol, not
	// with the draw.
	in.wl.IterTime, in.wl.JitterSigma = 10*time.Millisecond, 0.05
	out, err := sp.runCluster(in, sp.twinIters)
	if err == nil && out.iters != int64(sp.workers)*sp.twinIters {
		err = fmt.Errorf("%s: DES twin completed %d of %d iterations", sp.name, out.iters, int64(sp.workers)*sp.twinIters)
	}
	return out, err
}

// runAssembly is the traced counterpart of cluster.Run for a static cluster:
// the same nodes on the same simulator under the same defaults, but built
// here so that every handler can be wrapped in the span decorator.
func (sp spec) runAssembly(in inputs, maxIters int64, tr *tracer) (outcome, error) {
	wl := in.wl
	// cluster.Config.applyDefaults: the EC2-like network, with transient
	// stalls scaled to the iteration time unless they are disabled.
	net := des.NetModel{Latency: 250 * time.Microsecond, BytesPerSec: 125e6, Jitter: 100 * time.Microsecond}
	if sp.hiccups {
		net.Hiccups = des.Hiccups{MeanEvery: 4 * wl.IterTime, MinDur: wl.IterTime / 2, MaxDur: wl.IterTime * 5 / 4}
	}
	collector := trace.NewCollector()
	ns, err := buildNodes(sp, in, nodeOptions{
		maxIters: maxIters, tracer: collector,
		tuner: core.TunerConfig{
			MinAbort: 4 * net.Latency, MaxAbort: time.Duration(0.125 * float64(wl.IterTime)), MaxCandidates: 512,
		},
	})
	if err != nil {
		return outcome{}, err
	}
	ns.obs.SetTracer(collector)
	sim, err := des.New(des.Config{
		Seed: in.seed, Net: net, Registry: msg.Registry(),
		Transfer: ns.codecs.Tap(ns.transfer), Metrics: ns.obs.Registry(),
	})
	if err != nil {
		return outcome{}, err
	}
	hint := int(maxIters) * 40
	if maxIters == 0 {
		hint = 1 << 14
	}
	for i, srv := range ns.servers {
		id := node.ServerID(i)
		if err := sim.AddNode(id, tr.wrap("ps", id, srv, nil, hint*sp.workers/len(ns.servers))); err != nil {
			return outcome{}, err
		}
	}
	for i, wk := range ns.workers {
		id := node.WorkerID(i)
		if err := sim.AddNode(id, tr.wrap("worker", id, wk, wk, hint)); err != nil {
			return outcome{}, err
		}
	}
	if err := sim.AddNode(node.Scheduler, tr.wrap("core", node.Scheduler, ns.sched, nil, hint*sp.workers)); err != nil {
		return outcome{}, err
	}
	sim.Init()

	// cluster.Run's convergence probe, event for event.
	dim := wl.Model.Dim()
	totalIters := func() (n int64) {
		for _, wk := range ns.workers {
			n += wk.IterationsDone()
		}
		return n
	}
	out := outcome{}
	streak := 0
	var streakStart time.Duration
	var probe func()
	probe = func() {
		out.finalLoss = wl.Model.EvalLoss(ns.assemble(dim))
		if out.finalLoss < wl.TargetLoss {
			if streak++; streak == 1 {
				streakStart = sim.Elapsed()
			}
		} else {
			streak = 0
		}
		if streak >= 5 {
			out.converged, out.itersAtTarget = true, totalIters()
			sim.Stop()
			return
		}
		sim.Schedule(wl.EvalEvery, probe)
	}
	sim.Schedule(wl.EvalEvery, probe)
	sim.RunUntilIdle(sp.simConfig(in, maxIters, nil).MaxVirtual)

	out.iters = totalIters()
	out.digest = paramsDigest(ns.assemble(dim))
	out.frames, out.wireBytes, out.dataFrames = tallyFrames(ns.transfer)
	out.resyncs = ns.sched.ReSyncsSent()
	for _, wk := range ns.workers {
		out.aborts += wk.Aborts()
	}
	out.events = ns.obs.Registry().SumCounters(simSteps)
	out.stalenessMean = stalenessMean(ns.obs.Summary())
	out.virtual, out.gapsMs = pushTimeline(collector.Events(), sp.workers)
	if maxIters == 0 {
		out.virtual = streakStart
	} else {
		out.itersAtTarget = out.iters
	}
	return out, nil
}

// paramsDigest is cluster.Run's digest: SHA-256 over the IEEE-754 bits.
func paramsDigest(w []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
