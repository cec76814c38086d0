package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/des"
	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/transport"
	"specsync/internal/wire"
)

// Layers the handler spans cannot see are measured by replaying the
// workload's own message shapes through the layer's public entry points
// (the cmd/specsync-perf-bench idiom): a fixed operation count, timed in
// batches, median batch reported.

const replayBatches = 5

// calls scales a replay's operation count by the spec's divisor.
func (sp spec) calls(n int) int {
	if sp.replayDiv > 1 {
		n /= int(sp.replayDiv)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// timeOp returns the median per-call time of f in microseconds.
func timeOp(calls int, f func()) float64 {
	per := make([]float64, replayBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per[b] = float64(time.Since(start)) / 1e3 / float64(calls)
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call of f.
func allocsPerOp(calls int, f func()) float64 {
	var before, after runtime.MemStats
	f() // warm pools
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// replayContext is a node.Context that goes nowhere: sends are dropped,
// timers never fire, the clock advances a fixed step per reading.
type replayContext struct {
	id   node.ID
	now  time.Time
	step time.Duration
	rng  *rand.Rand
}

func (c *replayContext) Self() node.ID { return c.id }
func (c *replayContext) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}
func (c *replayContext) Send(node.ID, wire.Message)                  {}
func (c *replayContext) After(time.Duration, func()) node.CancelFunc { return func() {} }
func (c *replayContext) Rand() *rand.Rand                            { return c.rng }
func (c *replayContext) Logf(string, ...any)                         {}

// shapes are one shard's data frames of one iteration of the workload.
type shapes struct {
	push, pull wire.Message
	block      []float64 // the gradient block behind push
}

func (sp spec) shapes(in inputs, ns *nodeSet) shapes {
	rng := rand.New(rand.NewSource(in.seed))
	grad := in.wl.Model.Grad(in.initVec, in.wl.Model.SampleBatch(0, rng)).Dense
	r := ns.ranges[0]
	sh := shapes{
		block: grad[r.Lo:r.Hi],
		pull:  &msg.PullResp{Seq: 1, Version: 1, Values: in.initVec[r.Lo:r.Hi]},
	}
	if c, _, _ := codec.Build(sp.codec); c != nil {
		sh.push = &msg.PushReqV2{
			Seq: 1, Iter: 1, PullVersion: 1, Codec: uint8(c.ID()),
			Payload: codec.EncodePayload(c, sh.block, nil, nil, rng),
		}
	} else {
		sh.push = &msg.PushReq{Seq: 1, Iter: 1, PullVersion: 1, Dense: sh.block}
	}
	return sh
}

// replayLayers fills in the per-layer metrics that come from replays.
func (sp spec) replayLayers(in inputs, out map[string]metric) error {
	ns, err := buildNodes(sp, in, nodeOptions{})
	if err != nil {
		return err
	}
	sh := sp.shapes(in, ns)
	registry := msg.Registry()
	rng := rand.New(rand.NewSource(in.seed))
	m := sp.workers
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }

	// wire: one PushReq plus one PullResp, i.e. one shard's data frames.
	pushBytes, pullBytes := wire.Marshal(sh.push), wire.Marshal(sh.pull)
	calls := sp.calls(1 + 4_000_000/(len(pushBytes)+len(pullBytes)))
	put("wire.marshal_us", timeOp(calls, func() { wire.Marshal(sh.push); wire.Marshal(sh.pull) }), "us")
	put("wire.marshal_allocs", allocsPerOp(calls, func() { wire.Marshal(sh.push); wire.Marshal(sh.pull) }), "count")
	var decodeErr error
	unmarshal := func() {
		for _, b := range [][]byte{pushBytes, pullBytes} {
			if _, err := registry.Unmarshal(b); err != nil {
				decodeErr = err
			}
		}
	}
	put("wire.unmarshal_us", timeOp(calls, unmarshal), "us")
	put("wire.unmarshal_allocs", allocsPerOp(calls, unmarshal), "count")
	if decodeErr != nil {
		return fmt.Errorf("wire replay: %w", decodeErr)
	}
	put("wire.frame_bytes", float64(len(pushBytes)), "B")

	// codec: bypassed entirely on raw workloads.
	put("codec.encode_us", 0, "us")
	put("codec.decode_us", 0, "us")
	put("codec.payload_ratio", 1, "ratio")
	if c, _, _ := codec.Build(sp.codec); c != nil {
		recon := make([]float64, len(sh.block))
		w := wire.NewWriter(8 * len(sh.block))
		calls := sp.calls(1 + 200_000/len(sh.block))
		put("codec.encode_us", timeOp(calls, func() { w.Reset(); c.Encode(w, sh.block, nil, recon, rng) }), "us")
		payload := append([]byte(nil), w.Bytes()...)
		put("codec.decode_us", timeOp(calls, func() {
			if err := codec.DecodePayload(c.ID(), payload, recon); err != nil {
				decodeErr = err
			}
		}), "us")
		if decodeErr != nil {
			return fmt.Errorf("codec replay: %w", decodeErr)
		}
		put("codec.payload_ratio", float64(len(payload))/float64(8*len(sh.block)), "ratio")
	}

	// ps: allocations of one push through the shard's Receive.
	srv := ns.servers[0]
	srv.Init(&replayContext{id: node.ServerID(0), step: time.Microsecond, rng: rng})
	put("ps.apply_allocs", allocsPerOp(sp.calls(1+200_000/len(sh.block)), func() { srv.Receive(node.WorkerID(0), sh.push) }), "count")

	// core: a notify through the scheduler at this cluster size (epoch
	// boundaries and their retunes included, as in a run), and one isolated
	// tuning pass over a full history.
	tuner := core.TunerConfig{}
	if !sp.tcp {
		tuner = core.TunerConfig{MinAbort: time.Millisecond, MaxAbort: in.wl.IterTime / 8, MaxCandidates: 512}
	}
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: m, Scheme: specScheme, InitialSpan: in.wl.IterTime, Obs: ns.obs.Scheduler(), Tuner: tuner,
	})
	if err != nil {
		return err
	}
	gap := in.wl.IterTime / time.Duration(m)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	sched.Init(&replayContext{id: node.Scheduler, step: gap, rng: rng})
	var k int64
	put("core.notify_us", timeOp(sp.calls(256+2*m), func() { // at least two epochs a batch
		sched.Receive(node.WorkerID(int(k%int64(m))), &msg.Notify{Iter: k / int64(m)})
		k++
	}), "us")
	history := make([]core.PushRecord, 32*m)
	t0 := time.Unix(0, 0)
	for i := range history {
		history[i] = core.PushRecord{At: t0.Add(time.Duration(i+1) * gap), Worker: (i * 7) % m}
	}
	lastPull := make([]time.Time, m)
	spans := make([]time.Duration, m)
	for _, rec := range history {
		lastPull[rec.Worker] = rec.At
	}
	for i := range spans {
		spans[i] = in.wl.IterTime
		if lastPull[i].IsZero() {
			lastPull[i] = t0
		}
	}
	tuner.Workers = m
	var tuneErr error
	put("core.tune_us", timeOp(sp.calls(1+64/m), func() {
		if _, err := core.Tune(tuner, history, history[len(history)-m:], lastPull, spans); err != nil {
			tuneErr = err
		}
	}), "us")
	if tuneErr != nil {
		return fmt.Errorf("tuner replay: %w", tuneErr)
	}

	// obs: one straggler-detector observation at this cluster size.
	so := obs.New(obs.Options{}).Scheduler()
	at := t0
	put("obs.straggler_observe_us", timeOp(sp.calls(4096), func() {
		at = at.Add(gap)
		so.WorkerSpan(at, int(k%int64(m)), in.wl.IterTime)
		k++
	}), "us")

	// model: one gradient and one evaluation.
	batch := in.wl.Model.SampleBatch(0, rng)
	gradCalls := sp.calls(1 + 200_000/in.wl.Model.Dim())
	put("model.grad_us", timeOp(gradCalls, func() { in.wl.Model.Grad(in.initVec, batch) }), "us")
	put("model.eval_us", timeOp(1+gradCalls/16, func() { in.wl.Model.EvalLoss(in.initVec) }), "us")

	// des: schedule plus step of an empty event on a bare simulator.
	sim, err := des.New(des.Config{Seed: in.seed, Registry: registry})
	if err != nil {
		return err
	}
	events := sp.calls(1 << 15)
	put("des.event_ns", 1e3*timeOp(1, func() {
		for i := 0; i < events; i++ {
			sim.Schedule(time.Duration(i%97)*time.Microsecond, func() {})
		}
		for sim.Step() {
		}
	})/float64(events), "ns")

	put("transport.rtt_us_p50", 0, "us")
	put("transport.frames_per_s", 0, "1/s")
	put("live.inject_to_receive_us", 0, "us")
	if sp.tcp {
		rtt, rate, err := replayTransport(sh.pull, registry, sp.calls)
		if err != nil {
			return err
		}
		put("transport.rtt_us_p50", rtt, "us")
		put("transport.frames_per_s", rate, "1/s")
		handoff, err := replayMailbox(registry, sp.calls(2000))
		if err != nil {
			return err
		}
		put("live.inject_to_receive_us", handoff, "us")
	}
	return nil
}

// replayTransport measures loopback transport.TCP on frame m: the median
// round trip of a ping-pong and the one-way rate of a flood.
func replayTransport(m wire.Message, registry *wire.Registry, scale func(int) int) (rttUs, framesPerS float64, err error) {
	size := len(wire.Marshal(m))
	pings, flood := 1+2_000_000/size, 1+8_000_000/size
	if pings > 2000 {
		pings, flood = 2000, 20000
	}
	pings, flood = scale(pings), scale(flood)
	back := make(chan struct{}, 1) // one ping in flight
	var got atomic.Int64
	all := make(chan struct{})
	var a, b *transport.TCP
	var echo atomic.Bool
	b, err = transport.ListenTCP(transport.TCPConfig{
		ID: node.ServerID(0), ListenAddr: "127.0.0.1:0", Registry: registry,
		OnMessage: func(from node.ID, m wire.Message) {
			if echo.Load() {
				_ = b.Send(from, m) // a lost echo shows as the ping timing out
			} else if got.Add(1) == int64(flood) {
				close(all)
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	a, err = transport.ListenTCP(transport.TCPConfig{
		ID: node.WorkerID(0), ListenAddr: "127.0.0.1:0", Registry: registry,
		Peers:     map[node.ID]string{node.ServerID(0): b.Addr()},
		OnMessage: func(node.ID, wire.Message) { back <- struct{}{} },
	})
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b.AddPeer(node.WorkerID(0), a.Addr())

	echo.Store(true)
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings+8; i++ {
		start := time.Now()
		if err := a.Send(node.ServerID(0), m); err != nil {
			return 0, 0, err
		}
		select {
		case <-back:
		case <-time.After(10 * time.Second):
			return 0, 0, fmt.Errorf("transport replay: ping %d timed out", i)
		}
		if i >= 8 { // the first few pay for the dials
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
	}
	echo.Store(false)
	start := time.Now()
	for i := 0; i < flood; i++ {
		if err := a.Send(node.ServerID(0), m); err != nil {
			return 0, 0, err
		}
	}
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		return 0, 0, fmt.Errorf("transport replay: flood delivered %d of %d frames", got.Load(), flood)
	}
	return median(rtts), float64(flood) / time.Since(start).Seconds(), nil
}

// stamp is a handler that reports when each message reached it.
type stamp struct{ at chan time.Time }

func (s *stamp) Init(node.Context)             {}
func (s *stamp) Receive(node.ID, wire.Message) { s.at <- time.Now() }

// replayMailbox measures live.TCPHost's hand-off: from Inject on one
// goroutine to the handler's Receive on the event loop.
func replayMailbox(registry *wire.Registry, messages int) (float64, error) {
	h := &stamp{at: make(chan time.Time, 1)} // one message in flight
	host, err := live.NewTCPHost(live.TCPHostConfig{
		ID: node.WorkerID(0), Handler: h, ListenAddr: "127.0.0.1:0", Registry: registry,
	})
	if err != nil {
		return 0, err
	}
	defer host.Close()
	lat := make([]float64, 0, messages)
	for i := 0; i < messages; i++ {
		start := time.Now()
		host.Inject(node.Scheduler, &msg.Heartbeat{})
		select {
		case at := <-h.at:
			lat = append(lat, float64(at.Sub(start))/1e3)
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("mailbox replay: message %d never reached the handler", i)
		}
	}
	return median(lat), nil
}
