package core

import (
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// scriptWorker is a minimal worker stand-in that sends Notify messages at
// scripted times and records what the scheduler sends back.
type scriptWorker struct {
	ctx      node.Context
	notifies []time.Duration // offsets from start, one Notify{iter} each
	resyncs  []int64
	releases []int64
	started  bool
}

func (s *scriptWorker) Init(ctx node.Context) {
	s.ctx = ctx
	for i, d := range s.notifies {
		iter := int64(i)
		ctx.After(d, func() {
			ctx.Send(node.Scheduler, &msg.Notify{Iter: iter})
		})
	}
}

func (s *scriptWorker) Receive(from node.ID, m wire.Message) {
	switch mm := m.(type) {
	case *msg.Start:
		s.started = true
	case *msg.ReSync:
		s.resyncs = append(s.resyncs, mm.Iter)
	case *msg.Release:
		s.releases = append(s.releases, mm.Clock)
	}
}

func buildSim(t testing.TB, cfg SchedulerConfig, workers []*scriptWorker) (*des.Sim, *Scheduler) {
	t.Helper()
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddNode(node.Scheduler, sched); err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if err := sim.AddNode(node.WorkerID(i), w); err != nil {
			t.Fatal(err)
		}
	}
	sim.Init()
	return sim, sched
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(SchedulerConfig{Workers: 0, Scheme: scheme.Config{Base: scheme.ASP}, InitialSpan: time.Second}); err == nil {
		t.Error("expected error for 0 workers")
	}
	if _, err := NewScheduler(SchedulerConfig{Workers: 2, Scheme: scheme.Config{Base: scheme.ASP}, InitialSpan: 0}); err == nil {
		t.Error("expected error for zero InitialSpan")
	}
	if _, err := NewScheduler(SchedulerConfig{Workers: 2, Scheme: scheme.Config{Base: 0}, InitialSpan: time.Second}); err == nil {
		t.Error("expected error for bad scheme")
	}
}

func TestSchedulerSendsStart(t *testing.T) {
	ws := []*scriptWorker{{}, {}}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.ASP}, InitialSpan: time.Second,
	}, ws)
	sim.RunUntilIdle(time.Second)
	for i, w := range ws {
		if !w.started {
			t.Errorf("worker %d never received Start", i)
		}
	}
}

func TestSpecFixedIssuesReSync(t *testing.T) {
	// Worker 0 notifies at t=1s; workers 1 and 2 notify at 1.2s and 1.4s —
	// inside worker 0's 1s window. With rate 0.5 (threshold 1.5 of m=3),
	// the 2 peer pushes trigger a re-sync for iteration 1.
	collector := trace.NewCollector()
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second}},
		{notifies: []time.Duration{1200 * time.Millisecond}},
		{notifies: []time.Duration{1400 * time.Millisecond}},
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme: scheme.Config{
			Base: scheme.ASP, Spec: scheme.SpecFixed,
			AbortTime: time.Second, AbortRate: 0.5,
		},
		InitialSpan: 10 * time.Second,
		Tracer:      collector,
	}, ws)
	sim.RunUntilIdle(time.Minute)

	if len(ws[0].resyncs) != 1 || ws[0].resyncs[0] != 1 {
		t.Errorf("worker 0 resyncs = %v, want [1]", ws[0].resyncs)
	}
	if sched.ReSyncsSent() < 1 {
		t.Error("scheduler counted no re-syncs")
	}
	if collector.Count(trace.KindReSync) < 1 {
		t.Error("no resync trace event")
	}
	// Worker 2's window saw no later pushes; no re-sync for it.
	if len(ws[2].resyncs) != 0 {
		t.Errorf("worker 2 resyncs = %v, want none", ws[2].resyncs)
	}
}

func TestSpecFixedBelowThresholdNoReSync(t *testing.T) {
	// Only one peer push inside the window; threshold m*rate = 2.4.
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second}},
		{notifies: []time.Duration{1300 * time.Millisecond}},
		{notifies: []time.Duration{5 * time.Second}},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme: scheme.Config{
			Base: scheme.ASP, Spec: scheme.SpecFixed,
			AbortTime: time.Second, AbortRate: 0.8,
		},
		InitialSpan: 10 * time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	if len(ws[0].resyncs) != 0 {
		t.Errorf("worker 0 resyncs = %v, want none", ws[0].resyncs)
	}
}

func TestSchedulerEpochTracking(t *testing.T) {
	// Worker 0 pushes 3x, worker 1 pushes 2x: epochs complete when both
	// have pushed — twice here.
	ws := []*scriptWorker{
		{notifies: []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second}},
		{notifies: []time.Duration{1500 * time.Millisecond, 3500 * time.Millisecond}},
	}
	collector := trace.NewCollector()
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.ASP},
		InitialSpan: time.Second, Tracer: collector,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	if got := sched.Epoch(); got != 2 {
		t.Errorf("Epoch = %d, want 2", got)
	}
	if got := collector.Count(trace.KindEpoch); got != 2 {
		t.Errorf("epoch events = %d, want 2", got)
	}
}

func TestSchedulerBSPBarrier(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: []time.Duration{1 * time.Second}},
		{notifies: []time.Duration{2 * time.Second}},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.BSP},
		InitialSpan: time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	// The release must arrive only after BOTH notifies, i.e. clock 1 once.
	for i, w := range ws {
		if len(w.releases) != 1 || w.releases[0] != 1 {
			t.Errorf("worker %d releases = %v, want [1]", i, w.releases)
		}
	}
}

func TestSchedulerSSPMinClock(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: []time.Duration{1 * time.Second, 2 * time.Second}},
		{notifies: []time.Duration{3 * time.Second}},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.SSP, Staleness: 2},
		InitialSpan: time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	// The released clock rises to 1 only when the slow worker finishes its
	// first iteration at t=3s.
	if len(ws[0].releases) == 0 {
		t.Fatal("no Release broadcast")
	}
	last := ws[0].releases[len(ws[0].releases)-1]
	if last != 1 {
		t.Errorf("final released clock = %d, want 1", last)
	}
}

func TestSchedulerQuorumRelease(t *testing.T) {
	// PSP with β = 0.5 over 4 workers releases clock 1 once 2 clocks reach
	// it, whatever the other two do.
	ws := []*scriptWorker{
		{notifies: mkDur(1000)},
		{notifies: mkDur(2000)},
		{},
		{},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 4, Scheme: scheme.Config{Base: scheme.BSP, Quorum: 0.5}, InitialSpan: time.Second,
	}, ws)
	sim.RunFor(1500 * time.Millisecond)
	if got := ws[2].releases; len(got) != 0 {
		t.Fatalf("released %v on one clock of four, want nothing before the quorum", got)
	}
	sim.RunFor(time.Second)
	if got := ws[2].releases; len(got) != 1 || got[0] != 1 {
		t.Errorf("releases = %v, want [1] once 2 of 4 clocks reach 1", got)
	}
}

func TestSchedulerAdaptiveTunesAtEpoch(t *testing.T) {
	// Build a bursty pattern over two epochs and verify the tuner runs and
	// enables speculation with a positive window.
	mk := func(offsets ...int) []time.Duration {
		out := make([]time.Duration, len(offsets))
		for i, o := range offsets {
			out[i] = time.Duration(o) * time.Millisecond
		}
		return out
	}
	ws := []*scriptWorker{
		{notifies: mk(1000, 2000, 3000, 4000)},
		{notifies: mk(1100, 2100, 3100, 4100)},
		{notifies: mk(1200, 2200, 3200, 4200)},
	}
	var tunings []Tuning
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme:  scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		// Nominal span 1s (matches the scripted cadence).
		InitialSpan: time.Second,
		OnTune:      func(epoch int, tn Tuning) { tunings = append(tunings, tn) },
	}, ws)
	sim.RunUntilIdle(time.Minute)

	if len(tunings) == 0 {
		t.Fatal("adaptive scheduler never tuned")
	}
	enabled, abortTime, rates := sched.Hyperparameters()
	found := false
	for _, tn := range tunings {
		if tn.Enabled {
			found = true
			if tn.AbortTime <= 0 {
				t.Errorf("enabled tuning with non-positive window: %+v", tn)
			}
		}
	}
	if !found {
		t.Logf("final state: enabled=%v abortTime=%v rates=%v", enabled, abortTime, rates)
		t.Error("no tuning pass enabled speculation despite bursty pushes")
	}
}

func TestSchedulerSpanEstimates(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: mkDur(1000, 3000, 5000)}, // 2s spans
		{notifies: mkDur(1000, 2000, 3000)}, // 1s spans
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.ASP},
		InitialSpan: 1500 * time.Millisecond,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	spans := sched.SpanEstimates()
	if !(spans[0] > spans[1]) {
		t.Errorf("span EWMA ordering wrong: %v", spans)
	}
}

func mkDur(offsets ...int) []time.Duration {
	out := make([]time.Duration, len(offsets))
	for i, o := range offsets {
		out[i] = time.Duration(o) * time.Millisecond
	}
	return out
}

// TestSchedulerResendsReleaseToStaleNotifier: a notify that does not advance
// its sender's clock — here a cold-restarted worker reporting iteration 0
// again — is answered with the release that already admits its next
// iteration, and only the stale sender gets it.
func TestSchedulerResendsReleaseToStaleNotifier(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: mkDur(1000, 2000)},
		{notifies: mkDur(1100, 2100)},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.BSP}, InitialSpan: time.Second,
	}, ws)
	sim.RunFor(3 * time.Second)
	if err := sim.Inject(node.WorkerID(0), node.Scheduler, &msg.Notify{Iter: 0}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if got := ws[0].releases; len(got) != 3 || got[2] != 2 {
		t.Errorf("worker 0 releases = %v, want [1 2 2]", got)
	}
	if got := ws[1].releases; len(got) != 2 {
		t.Errorf("worker 1 releases = %v, want [1 2]", got)
	}
}

// TestSwitchToBoundZeroClosesWindows: a switch onto a bound of 0 closes the
// speculation windows already open, so no re-sync follows it.
func TestSwitchToBoundZeroClosesWindows(t *testing.T) {
	// The same pattern as the fixed-speculation re-sync test: without the
	// switch, worker 0's window opened at 1s is re-synced by the pushes at
	// 1.2s and 1.4s.
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second}},
		{notifies: []time.Duration{1200 * time.Millisecond}},
		{notifies: []time.Duration{1400 * time.Millisecond}},
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme: scheme.Config{Base: scheme.SSP, Staleness: 2, Spec: scheme.SpecFixed,
			AbortTime: time.Second, AbortRate: 0.5},
		InitialSpan: 10 * time.Second,
	}, ws)
	sim.Schedule(1100*time.Millisecond, func() {
		sched.switchTo(scheme.Gate{Bound: 0, Quorum: 1}, "test", sim.Now())
	})
	sim.RunUntilIdle(time.Minute)
	if got := sched.ReSyncsSent(); got != 0 {
		t.Errorf("%d re-syncs after the switch to a bound of 0, want none", got)
	}
}
