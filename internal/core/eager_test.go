package core

import (
	"testing"
	"time"

	"specsync/internal/scheme"
)

// eagerFixture: worker 0 notifies at 1s opening a 2s window (rate 0.5 of
// m=3 => threshold 1.5). Peers notify at the given offsets.
func eagerFixture(t *testing.T, peerOffsets []time.Duration) (*scriptWorker, *Scheduler, func()) {
	t.Helper()
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second}},
		{},
		{},
	}
	for wi, off := range peerOffsets {
		ws[1+wi%2].notifies = append(ws[1+wi%2].notifies, off)
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme: scheme.Config{
			Base: scheme.ASP, Spec: scheme.SpecFixed,
			AbortTime: 2 * time.Second, AbortRate: 0.5,
		},
		InitialSpan: 10 * time.Second,
	}, ws)
	return ws[0], sched, func() { sim.RunUntilIdle(time.Minute) }
}

func TestEagerFiresAtThresholdCrossing(t *testing.T) {
	// Peers push at 1.2s and 1.4s: threshold (2 >= 1.5) crossed at 1.4s.
	w0, sched, run := eagerFixture(t, []time.Duration{1200 * time.Millisecond, 1400 * time.Millisecond})
	run()
	if len(w0.resyncs) != 1 {
		t.Fatalf("resyncs = %v", w0.resyncs)
	}
	if sched.ReSyncsSent() != 1 {
		t.Errorf("ReSyncsSent = %d", sched.ReSyncsSent())
	}
}

func TestEagerFiresOnlyOncePerWindow(t *testing.T) {
	// Four peer pushes in-window must yield exactly one re-sync.
	w0, _, run := eagerFixture(t, []time.Duration{
		1200 * time.Millisecond, 1300 * time.Millisecond,
		1500 * time.Millisecond, 1700 * time.Millisecond,
	})
	run()
	if len(w0.resyncs) != 1 {
		t.Fatalf("resyncs = %v, want exactly 1", w0.resyncs)
	}
}

func TestEagerIgnoresLateArrivals(t *testing.T) {
	// One push inside (1.2s), one after the window closes (4s): threshold
	// never met inside the window.
	w0, _, run := eagerFixture(t, []time.Duration{1200 * time.Millisecond, 4 * time.Second})
	run()
	if len(w0.resyncs) != 0 {
		t.Fatalf("resyncs = %v, want none", w0.resyncs)
	}
}

// TestWindowReplacedOnNextNotify: a worker's second notify re-arms its
// window; pushes counted against the old window must not leak into the new.
func TestWindowReplacedOnNextNotify(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second, 4 * time.Second}},
		{notifies: []time.Duration{1200 * time.Millisecond}},
		{},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 3,
		Scheme: scheme.Config{
			Base: scheme.ASP, Spec: scheme.SpecFixed,
			AbortTime: 2 * time.Second, AbortRate: 0.6, // threshold 1.8
		},
		InitialSpan: 10 * time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	// Window 1 saw one push (below 1.8); window 2 (armed at 4s) sees none.
	if len(ws[0].resyncs) != 0 {
		t.Fatalf("resyncs = %v, want none", ws[0].resyncs)
	}
}

func TestSpecWindowNotArmedWhenDisabled(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: []time.Duration{time.Second}},
		{notifies: []time.Duration{1100 * time.Millisecond, 1200 * time.Millisecond}},
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers: 2, Scheme: scheme.Config{Base: scheme.ASP}, // SpecOff
		InitialSpan: time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	if sched.ReSyncsSent() != 0 {
		t.Error("SpecOff scheduler sent re-syncs")
	}
}

// TestAdaptiveMarginReducesAborts pins the re-syncs an adaptive scheduler
// sends on a fixed notify script (five workers, each pushing once a second,
// 50 ms apart) at rateMargin 2. The paper's literal margin of 1 sends 16 on
// the same script, and a margin of 3 sends 8.
func TestAdaptiveMarginReducesAborts(t *testing.T) {
	ws := make([]*scriptWorker, 5)
	for w := range ws {
		ws[w] = &scriptWorker{}
		for k := 1; k <= 5; k++ {
			ws[w].notifies = append(ws[w].notifies, time.Duration(k*1000+w*50)*time.Millisecond)
		}
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers:     5,
		Scheme:      scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		InitialSpan: time.Second,
	}, ws)
	sim.RunUntilIdle(time.Minute)
	if got := sched.ReSyncsSent(); got != 12 {
		t.Errorf("re-syncs = %d, want 12", got)
	}
}
