// Command specsync-perf-bench measures the system's hot paths and emits the
// committed perf-trajectory report (BENCH_perf.json): PushReq wire
// marshal/unmarshal ns/op + allocs/op + msgs/sec, parameter-server apply
// ns/push, the scheduler's notify path, epoch retune and straggler scoring at
// 8, 64 and 512 workers, and DES throughput (events/sec, delivered msgs/sec)
// on a reference cluster run. ROADMAP item 3 gates hot-path work on these
// numbers; `specsync-bench -compare` diffs two reports and fails CI on
// regression.
//
//	specsync-perf-bench -out BENCH_perf.json
//
// It exits nonzero if the wire pool's alloc guarantee breaks, the scheduler's
// notify path or the straggler detector allocates, or the DES run goes empty
// — a perf smoke test for CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/optimizer"
	"specsync/internal/ps"
	"specsync/internal/scheme"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

type wireBench struct {
	PayloadBytes      int     `json:"payload_bytes"`
	MarshalNsOp       float64 `json:"marshal_ns_op"`
	MarshalAllocsOp   float64 `json:"marshal_allocs_op"`
	UnmarshalNsOp     float64 `json:"unmarshal_ns_op"`
	UnmarshalAllocsOp float64 `json:"unmarshal_allocs_op"`
	// Round-trip throughput: one marshal + one unmarshal per message.
	MsgsPerSec float64 `json:"msgs_per_sec"`
}

type serverBench struct {
	ApplyNsPerPush     float64 `json:"apply_ns_per_push"`
	ApplyAllocsPerPush float64 `json:"apply_allocs_per_push"`
}

// schedulerBench is the scheduler's cost at one fleet size: a steady-state
// notify that closes no epoch (telemetry attached, nobody reading /clusterz),
// one adaptive retune over a full history, and one straggler-detector
// observation.
type schedulerBench struct {
	Name                     string  `json:"name"`
	Workers                  int     `json:"workers"`
	NotifyNsOp               float64 `json:"notify_ns_op"`
	NotifyAllocsOp           float64 `json:"notify_allocs_op"`
	TuneNsOp                 float64 `json:"tune_ns_op"`
	StragglerObserveAllocsOp float64 `json:"straggler_observe_allocs_op"`
}

type desBench struct {
	Workers        int     `json:"workers"`
	Steps          float64 `json:"steps"`
	DeliveredMsgs  float64 `json:"delivered_msgs"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	MsgsPerSec     float64 `json:"msgs_per_sec"`
}

type report struct {
	Schema    string           `json:"schema"`
	Dim       int              `json:"dim"`
	Wire      wireBench        `json:"wire"`
	Server    serverBench      `json:"server"`
	Scheduler []schedulerBench `json:"scheduler"`
	DES       desBench         `json:"des"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-perf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-perf-bench", flag.ContinueOnError)
	var (
		out     = fs.String("out", "BENCH_perf.json", "output JSON path (\"-\" for stdout)")
		dim     = fs.Int("dim", 4096, "gradient values per push")
		workers = fs.Int("workers", 8, "workers in the DES reference run")
		seed    = fs.Int64("seed", 7, "DES reference run seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := report{Schema: "specsync-perf/v1", Dim: *dim}

	var err error
	if rep.Wire, err = benchWire(*dim); err != nil {
		return err
	}
	if rep.Server, err = benchServerApply(*dim); err != nil {
		return err
	}
	for _, m := range []int{8, 64, 512} {
		sb, err := benchScheduler(m)
		if err != nil {
			return err
		}
		rep.Scheduler = append(rep.Scheduler, sb)
	}
	if rep.DES, err = benchDES(*workers, *seed); err != nil {
		return err
	}

	// Smoke assertions: the wire pool's 1-alloc Marshal (ROADMAP item 3's
	// baseline win) must hold with headroom, and the DES run must have done
	// real work — an empty run would make every throughput number garbage.
	if rep.Wire.MarshalAllocsOp > 4 {
		return fmt.Errorf("PushReq marshal costs %.0f allocs/op (want <= 4): wire pool regressed",
			rep.Wire.MarshalAllocsOp)
	}
	for _, sb := range rep.Scheduler {
		if sb.NotifyAllocsOp > 0 || sb.StragglerObserveAllocsOp > 0 {
			return fmt.Errorf("scheduler at %d workers: %.0f allocs/notify, %.0f allocs/straggler observation (want 0 and 0)",
				sb.Workers, sb.NotifyAllocsOp, sb.StragglerObserveAllocsOp)
		}
	}
	if rep.DES.Steps == 0 || rep.DES.DeliveredMsgs == 0 {
		return fmt.Errorf("DES reference run did no work (steps=%.0f delivered=%.0f)",
			rep.DES.Steps, rep.DES.DeliveredMsgs)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (marshal %.0f ns/op, apply %.0f ns/push, DES %.0f events/sec)\n",
		*out, rep.Wire.MarshalNsOp, rep.Server.ApplyNsPerPush, rep.DES.EventsPerSec)
	return nil
}

// benchWire measures PushReq codec throughput on a dense dim-value gradient.
func benchWire(dim int) (wireBench, error) {
	rng := rand.New(rand.NewSource(1))
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	m := &msg.PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: grad}
	payload := wire.Marshal(m)
	registry := msg.Registry()
	if _, err := registry.Unmarshal(payload); err != nil {
		return wireBench{}, fmt.Errorf("wire round-trip: %w", err)
	}

	mar := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wire.Marshal(m)
		}
	})
	unmar := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := registry.Unmarshal(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	w := wireBench{
		PayloadBytes:      len(payload),
		MarshalNsOp:       float64(mar.NsPerOp()),
		MarshalAllocsOp:   float64(mar.AllocsPerOp()),
		UnmarshalNsOp:     float64(unmar.NsPerOp()),
		UnmarshalAllocsOp: float64(unmar.AllocsPerOp()),
	}
	if rt := w.MarshalNsOp + w.UnmarshalNsOp; rt > 0 {
		w.MsgsPerSec = 1e9 / rt
	}
	return w, nil
}

// benchCtx is a no-op node.Context so the server shard can run outside any
// event loop: sends (the PushAcks) are discarded, timers never fire.
type benchCtx struct {
	now time.Time
	rng *rand.Rand
}

func (c *benchCtx) Self() node.ID { return node.ServerID(0) }
func (c *benchCtx) Now() time.Time {
	c.now = c.now.Add(time.Microsecond)
	return c.now
}
func (c *benchCtx) Send(node.ID, wire.Message)                  {}
func (c *benchCtx) After(time.Duration, func()) node.CancelFunc { return func() {} }
func (c *benchCtx) Rand() *rand.Rand                            { return c.rng }
func (c *benchCtx) Logf(string, ...any)                         {}

// benchServerApply measures the full server-side push path: Receive dispatch,
// optimizer apply, version/staleness bookkeeping, and the (discarded) ack.
func benchServerApply(dim int) (serverBench, error) {
	opt, err := optimizer.NewSGD(optimizer.SGDConfig{Schedule: optimizer.Const(0.05)}, dim)
	if err != nil {
		return serverBench{}, err
	}
	rng := rand.New(rand.NewSource(2))
	init := tensor.NewVec(dim)
	srv, err := ps.New(ps.Config{
		Range:     ps.Range{Lo: 0, Hi: dim},
		Init:      init,
		Optimizer: opt,
	})
	if err != nil {
		return serverBench{}, err
	}
	srv.Init(&benchCtx{rng: rng})
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = rng.NormFloat64()
	}
	from := node.WorkerID(0)
	var seq uint64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			seq++
			srv.Receive(from, &msg.PushReq{
				Seq: seq, Iter: int64(seq), PullVersion: int64(seq) - 1, Dense: grad,
			})
		}
	})
	return serverBench{
		ApplyNsPerPush:     float64(res.NsPerOp()),
		ApplyAllocsPerPush: float64(res.AllocsPerOp()),
	}, nil
}

// benchScheduler measures the scheduler at m workers. The notify stream comes
// from m-1 workers in turn, so the epoch never closes and every measured
// message takes the plain path: span estimate, straggler score, history
// append and trim, window counting.
func benchScheduler(m int) (schedulerBench, error) {
	const iterTime = 100 * time.Millisecond
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: m, InitialSpan: iterTime, Obs: obs.New(obs.Options{}).Scheduler(),
		Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
	})
	if err != nil {
		return schedulerBench{}, err
	}
	sched.Init(&benchCtx{})
	ids := make([]node.ID, m-1)
	for i := range ids {
		ids[i] = node.WorkerID(i)
	}
	var n msg.Notify
	k := 0
	notify := func() {
		n.Iter = int64(k / len(ids))
		sched.Receive(ids[k%len(ids)], &n)
		k++
	}
	for i := 0; i < 3*32*m; i++ { // past the history bound, every reporter scored
		notify()
	}
	notifyRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			notify()
		}
	})

	// One epoch's retune input: a full history of evenly paced workers with
	// jittered phases, the last round as the epoch, and the search bounds the
	// cluster harness derives from the iteration time.
	rng := rand.New(rand.NewSource(3))
	start := time.Unix(1_700_000_000, 0)
	history := make([]core.PushRecord, 0, 32*m)
	lastPull := make([]time.Time, m)
	spans := make([]time.Duration, m)
	for round := 0; round < 32; round++ {
		for _, w := range rng.Perm(m) {
			at := start.Add(time.Duration(round)*iterTime + time.Duration(rng.Int63n(int64(iterTime))))
			history = append(history, core.PushRecord{At: at, Worker: w})
		}
		sort.Slice(history[round*m:], func(i, j int) bool {
			return history[round*m+i].At.Before(history[round*m+j].At)
		})
	}
	for _, p := range history {
		lastPull[p.Worker] = p.At
	}
	for i := range spans {
		spans[i] = iterTime
	}
	tcfg := core.TunerConfig{Workers: m, MinAbort: time.Millisecond, MaxAbort: iterTime / 8, MaxCandidates: 512}
	if _, err := core.Tune(tcfg, history, history[31*m:], lastPull, spans); err != nil {
		return schedulerBench{}, err
	}
	tuneRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Tune(tcfg, history, history[31*m:], lastPull, spans); err != nil {
				b.Fatal(err)
			}
		}
	})

	so := obs.New(obs.Options{}).Scheduler()
	at := start
	observe := func(i int) {
		at = at.Add(time.Millisecond)
		so.WorkerSpan(at, i%m, iterTime)
	}
	for i := 0; i < 4*m; i++ {
		observe(i)
	}
	observeRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			observe(i)
		}
	})
	return schedulerBench{
		Name:                     fmt.Sprintf("m%d", m),
		Workers:                  m,
		NotifyNsOp:               float64(notifyRes.NsPerOp()),
		NotifyAllocsOp:           float64(notifyRes.AllocsPerOp()),
		TuneNsOp:                 float64(tuneRes.NsPerOp()),
		StragglerObserveAllocsOp: float64(observeRes.AllocsPerOp()),
	}, nil
}

// benchDES times a reference SpecSync cluster run and reads the simulator's
// own counters back out of the registry, yielding end-to-end events/sec and
// delivered msgs/sec for the whole stack (scheduler, workers, servers,
// telemetry included).
func benchDES(workers int, seed int64) (desBench, error) {
	wl, err := cluster.NewTiny(workers, seed)
	if err != nil {
		return desBench{}, err
	}
	o := obs.New(obs.Options{})
	start := time.Now()
	res, err := cluster.Run(cluster.Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Workers:    workers,
		Seed:       seed,
		MaxVirtual: 2 * time.Minute,
		Obs:        o,
	})
	if err != nil {
		return desBench{}, err
	}
	wall := time.Since(start).Seconds()
	steps := float64(o.Registry().SumCounters("specsync_sim_steps_total"))
	delivered := float64(o.Registry().SumCounters("specsync_sim_delivered_total"))
	d := desBench{
		Workers:        workers,
		Steps:          steps,
		DeliveredMsgs:  delivered,
		VirtualSeconds: res.Elapsed.Seconds(),
		WallSeconds:    wall,
	}
	if wall > 0 {
		d.EventsPerSec = steps / wall
		d.MsgsPerSec = delivered / wall
	}
	return d, nil
}
