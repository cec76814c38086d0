package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// TestClusterViewReflectsLatestNotify reads /clusterz the way an operator
// does — between notifies, from outside the scheduler — and checks each read
// against hand-computed state of the notify just handled. Three workers with
// a 1 s fixed window and a threshold no window can reach (2.7 of 2 peers), so
// every window stays armed and keeps counting; zero network latency, so a
// notify sent at t is handled at t.
func TestClusterViewReflectsLatestNotify(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	o := obs.New(obs.Options{})
	ws := []*scriptWorker{
		{notifies: []time.Duration{ms(1000), ms(2000), ms(3000), ms(4000), ms(5000)}},
		{notifies: []time.Duration{ms(1200), ms(2200), ms(3200), ms(4200), ms(5200)}},
		{notifies: []time.Duration{ms(1400), ms(2400), ms(3400), ms(4400), ms(5400)}},
	}
	sim, _ := buildSim(t, SchedulerConfig{
		Workers: 3, InitialSpan: time.Second, Obs: o.Scheduler(),
		Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: time.Second, AbortRate: 0.9},
	}, ws)

	type want struct {
		at     time.Duration // when the reader looks
		stamp  time.Duration // the notify the view must reflect
		epoch  int64
		counts [3]int     // window_count per worker
		rates  [3]float64 // push_rate per worker
		scored bool       // rows carry straggler decoration
	}
	reads := []want{
		// Three notifies in: worker 0's window has seen both peers.
		{at: ms(1401), stamp: ms(1400), epoch: 1, counts: [3]int{2, 1, 0}, rates: [3]float64{2.5, 2.5, 2.5}},
		// Nothing happened since; a later read is the same view.
		{at: ms(1900), stamp: ms(1400), epoch: 1, counts: [3]int{2, 1, 0}, rates: [3]float64{2.5, 2.5, 2.5}},
		// Worker 0 again: its window re-arms, the others count its push.
		{at: ms(2001), stamp: ms(2000), epoch: 1, counts: [3]int{0, 2, 1}, rates: [3]float64{2, 1, 1}},
		{at: ms(2201), stamp: ms(2200), epoch: 1, counts: [3]int{1, 0, 2}, rates: [3]float64{2 / 1.2, 2 / 1.2, 1 / 1.2}},
		// Every worker has three span samples by its fourth notify.
		{at: ms(5401), stamp: ms(5400), epoch: 5, counts: [3]int{2, 1, 0}, rates: [3]float64{5 / 4.4, 5 / 4.4, 5 / 4.4}, scored: true},
	}
	sim.Schedule(ms(500), func() {
		if _, ok := o.ClusterSnapshot(); ok {
			t.Error("a view exists before the first notify")
		}
	})
	for _, rd := range reads {
		rd := rd
		sim.Schedule(rd.at, func() {
			snap, ok := o.ClusterSnapshot()
			if !ok {
				t.Errorf("read at %v: no view", rd.at)
				return
			}
			if got := snap.At.Sub(time.Unix(0, 0)); got != rd.stamp {
				t.Errorf("read at %v: view stamped %v, want %v", rd.at, got, rd.stamp)
			}
			if snap.Epoch != rd.epoch || snap.AliveWorkers != 3 || !snap.SpecEnabled || snap.AbortTimeSeconds != 1 {
				t.Errorf("read at %v: epoch %d alive %d spec %v abort %v", rd.at, snap.Epoch, snap.AliveWorkers, snap.SpecEnabled, snap.AbortTimeSeconds)
			}
			for i, w := range snap.Workers {
				if w.Index != i || !w.Alive || !w.WindowArmed || w.WindowThreshold != 3 || w.AbortRate != 0.9 {
					t.Errorf("read at %v: worker %d row %+v", rd.at, i, w)
				}
				if w.WindowCount != rd.counts[i] {
					t.Errorf("read at %v: worker %d window_count %d, want %d", rd.at, i, w.WindowCount, rd.counts[i])
				}
				if math.Abs(w.PushRate-rd.rates[i]) > 1e-9 {
					t.Errorf("read at %v: worker %d push_rate %v, want %v", rd.at, i, w.PushRate, rd.rates[i])
				}
				if scored := w.Straggler != ""; scored != rd.scored || (scored && (w.Straggler != "ok" || w.StragglerScore != 1)) {
					t.Errorf("read at %v: worker %d straggler decoration %q/%v, want scored=%v", rd.at, i, w.Straggler, w.StragglerScore, rd.scored)
				}
			}
		})
	}
	sim.RunUntilIdle(10 * time.Second)
}

// quietContext is a node.Context that goes nowhere: the clock is whatever the
// test sets, sends and timers are discarded.
type quietContext struct{ now time.Time }

func (c *quietContext) Self() node.ID              { return node.Scheduler }
func (c *quietContext) Now() time.Time             { return c.now }
func (c *quietContext) Send(node.ID, wire.Message) {}
func (c *quietContext) Rand() *rand.Rand           { return nil }
func (c *quietContext) Logf(string, ...any)        {}
func (c *quietContext) After(time.Duration, func()) node.CancelFunc {
	return func() {}
}

// steadyNotifier builds an adaptive scheduler at m workers with o's telemetry
// attached and returns a notify that advances the clock 200 us and delivers
// the next worker's Notify. Worker m-1 never reports, which keeps the first
// epoch open and adaptive speculation paused — arming a window costs the
// runtime's cancel handle by design. The warm-up fills the history past its bound (32 m
// records) so trimming is in steady state, and gives every reporting worker a
// scored span.
func steadyNotifier(tb testing.TB, m int, o *obs.Obs) (notify func()) {
	tb.Helper()
	sched, err := NewScheduler(SchedulerConfig{
		Workers: m, InitialSpan: 100 * time.Millisecond, Obs: o.Scheduler(),
		Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := &quietContext{now: time.Unix(1_700_000_000, 0)}
	sched.Init(ctx)
	ids := make([]node.ID, m-1)
	for i := range ids {
		ids[i] = node.WorkerID(i)
	}
	var n msg.Notify
	k := 0
	notify = func() {
		ctx.now = ctx.now.Add(200 * time.Microsecond)
		n.Iter = int64(k / len(ids))
		sched.Receive(ids[k%len(ids)], &n)
		k++
	}
	for i := 0; i < 3*32*m; i++ {
		notify()
	}
	if sched.Epoch() != 0 {
		tb.Fatalf("epoch %d: the warm-up was meant to leave the first epoch open", sched.Epoch())
	}
	return notify
}

// TestArmWindowAllocatesOnlyTheHandle: each window's expiry callback is bound
// once, so arming a window allocates only what the runtime's After does — here
// nothing, since quietContext hands out one static cancel func.
func TestArmWindowAllocatesOnlyTheHandle(t *testing.T) {
	sched, err := NewScheduler(SchedulerConfig{
		Workers: 4, InitialSpan: 100 * time.Millisecond,
		Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &quietContext{now: time.Unix(1_700_000_000, 0)}
	sched.Init(ctx)
	if allocs := testing.AllocsPerRun(100, func() { sched.armWindow(1, 7, ctx.now) }); allocs != 0 {
		t.Errorf("arming a window: %v allocs, want 0", allocs)
	}
}

// TestNotifyPathDoesNotAllocate pins the cost model of the notify path at
// fleet scale: with Obs attached (so the straggler detector scores every
// notify) but nobody reading /clusterz, a steady-state notify that closes no
// epoch touches no heap.
func TestNotifyPathDoesNotAllocate(t *testing.T) {
	const m = 512
	o := obs.New(obs.Options{})
	notify := steadyNotifier(t, m, o)
	if allocs := testing.AllocsPerRun(5000, notify); allocs != 0 {
		t.Errorf("steady-state notify allocates %v times per message at m = %d", allocs, m)
	}
	// The view is still there for whoever asks afterwards: worker 0 reports
	// once every (m-1) x 200 us.
	snap, ok := o.ClusterSnapshot()
	if !ok || len(snap.Workers) != m {
		t.Fatalf("view after the run: ok=%v, %d rows", ok, len(snap.Workers))
	}
	if w := snap.Workers[0]; w.Straggler != "ok" || math.Abs(w.PushRate*(m-1)*0.0002-1) > 0.05 {
		t.Errorf("worker 0 row %+v, want scored ok at about %.2f pushes/s", w, 1/((m-1)*0.0002))
	}
	if w := snap.Workers[m-1]; w.PushRate != 0 || w.Straggler != "" {
		t.Errorf("silent worker row %+v", w)
	}
}
