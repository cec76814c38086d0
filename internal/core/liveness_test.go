package core

import (
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// beatWorker sends heartbeats on a fixed period without ever notifying,
// modeling a live-but-slow worker.
type beatWorker struct {
	every time.Duration
}

func (b *beatWorker) Init(ctx node.Context) {
	var beat func()
	beat = func() {
		ctx.Send(node.Scheduler, &msg.Heartbeat{})
		ctx.After(b.every, beat)
	}
	ctx.After(b.every, beat)
}

func (b *beatWorker) Receive(from node.ID, m wire.Message) {}

func TestSchedulerLivenessEviction(t *testing.T) {
	// Worker 2 falls silent; the detector must evict it, the epoch must then
	// close on the two live workers alone, and the speculation threshold
	// must shrink to aliveN*rate. A run with the detector disabled is the
	// control: no eviction, no epoch, no re-sync.
	cases := []struct {
		name        string
		timeout     time.Duration
		wantEvicted bool
		wantEpochs  int
		wantResyncs []int64 // worker 0's re-synced iterations
	}{
		// threshold = m*rate = 1.5; the single peer push in each window is
		// never enough, and the silent worker keeps every epoch open.
		{name: "no-detector", timeout: 0, wantEvicted: false, wantEpochs: 0, wantResyncs: nil},
		// Worker 2 is evicted at the t=1.8s sweep. The epoch then closes on
		// the two live pushes already recorded, and worker 0's post-eviction
		// window (armed at 2s) carries threshold aliveN*rate = 1.0, so
		// worker 1's single push at 2.2s fires the re-sync.
		{name: "detector", timeout: 1200 * time.Millisecond, wantEvicted: true, wantEpochs: 2, wantResyncs: []int64{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collector := trace.NewCollector()
			faults := metrics.NewFaults(msg.IsControl)
			ws := []*scriptWorker{
				{notifies: []time.Duration{900 * time.Millisecond, 2 * time.Second}},
				{notifies: []time.Duration{950 * time.Millisecond, 2200 * time.Millisecond}},
				{}, // silent
			}
			sim, sched := buildSim(t, SchedulerConfig{
				Workers: 3,
				Scheme: scheme.Config{
					Base: scheme.ASP, Spec: scheme.SpecFixed,
					AbortTime: time.Second, AbortRate: 0.5,
				},
				InitialSpan:     10 * time.Second,
				Tracer:          collector,
				LivenessTimeout: tc.timeout,
				Faults:          faults,
			}, ws)
			// Stop before workers 0/1 themselves go stale (the sweep after
			// their final notifies is at t=2.4s).
			sim.RunFor(2300 * time.Millisecond)

			alive := sched.Alive()
			if alive[2] == tc.wantEvicted {
				t.Errorf("alive[2] = %v, want %v", alive[2], !tc.wantEvicted)
			}
			if alive[0] != true || alive[1] != true {
				t.Errorf("live workers evicted: alive = %v", alive)
			}
			if got := sched.Epoch(); got != tc.wantEpochs {
				t.Errorf("epochs = %d, want %d", got, tc.wantEpochs)
			}
			if len(ws[0].resyncs) != len(tc.wantResyncs) {
				t.Errorf("worker 0 resyncs = %v, want %v", ws[0].resyncs, tc.wantResyncs)
			}
			evicts := collector.Count(trace.KindEvict)
			if tc.wantEvicted && evicts != 1 {
				t.Errorf("evict trace events = %d, want 1", evicts)
			}
			if !tc.wantEvicted && evicts != 0 {
				t.Errorf("evict trace events = %d, want 0", evicts)
			}
			if st := faults.Stats(); st.Evictions != boolToInt64(tc.wantEvicted) {
				t.Errorf("eviction counter = %d, want %d", st.Evictions, boolToInt64(tc.wantEvicted))
			}
		})
	}
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestSchedulerReadmission(t *testing.T) {
	// Worker 2 is silent long enough to be evicted, then notifies at t=2s:
	// it must rejoin membership, with one evict and one recover on record.
	collector := trace.NewCollector()
	faults := metrics.NewFaults(msg.IsControl)
	// Workers 0 and 1 notify every 200 ms (well under the timeout) so only
	// worker 2 — silent until t=2s — trips the detector.
	steady := func() []time.Duration {
		var out []time.Duration
		for at := 200 * time.Millisecond; at <= 2200*time.Millisecond; at += 200 * time.Millisecond {
			out = append(out, at)
		}
		return out
	}
	ws := []*scriptWorker{
		{notifies: steady()},
		{notifies: steady()},
		{notifies: []time.Duration{2 * time.Second}},
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers:         3,
		Scheme:          scheme.Config{Base: scheme.ASP},
		InitialSpan:     time.Second,
		Tracer:          collector,
		LivenessTimeout: 300 * time.Millisecond,
		Faults:          faults,
	}, ws)
	// Stop before worker 2 goes stale a second time (next sweep past
	// 2s+300ms is at 2.4s).
	sim.RunFor(2300 * time.Millisecond)

	alive := sched.Alive()
	if !alive[0] || !alive[1] || !alive[2] {
		t.Errorf("final membership = %v, want all alive", alive)
	}
	var evicts2, recovers2 int
	for _, ev := range collector.Events() {
		if ev.Worker != 2 {
			continue
		}
		switch ev.Kind {
		case trace.KindEvict:
			evicts2++
		case trace.KindRecover:
			recovers2++
		}
	}
	if evicts2 != 1 || recovers2 != 1 {
		t.Errorf("worker 2 evicts/recovers = %d/%d, want 1/1", evicts2, recovers2)
	}
	if st := faults.Stats(); st.Readmissions < 1 {
		t.Errorf("readmission counter = %d, want >= 1", st.Readmissions)
	}
	if sched.MembershipEpoch() < 2 {
		t.Errorf("membership epoch = %d, want >= 2", sched.MembershipEpoch())
	}
}

func TestSchedulerHeartbeatPreventsEviction(t *testing.T) {
	// A worker that heartbeats but never notifies (alive, making no
	// progress) must stay in membership; without heartbeats it is evicted.
	cases := []struct {
		name      string
		worker2   node.Handler
		wantAlive bool
	}{
		{name: "heartbeats", worker2: &beatWorker{every: 100 * time.Millisecond}, wantAlive: true},
		{name: "silent", worker2: &scriptWorker{}, wantAlive: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := NewScheduler(SchedulerConfig{
				Workers:         3,
				Scheme:          scheme.Config{Base: scheme.ASP},
				InitialSpan:     time.Second,
				LivenessTimeout: 300 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim := buildMixedSim(t, sched, []node.Handler{
				&scriptWorker{notifies: []time.Duration{500 * time.Millisecond, 900 * time.Millisecond}},
				&scriptWorker{notifies: []time.Duration{600 * time.Millisecond, 1000 * time.Millisecond}},
				tc.worker2,
			})
			sim.RunFor(2 * time.Second)
			if got := sched.Alive()[2]; got != tc.wantAlive {
				t.Errorf("alive[2] = %v, want %v", got, tc.wantAlive)
			}
		})
	}
}

func TestSchedulerBSPBarrierSurvivesEviction(t *testing.T) {
	// Under BSP a dead worker would stall the barrier forever; eviction must
	// release the waiting workers. The parked workers send nothing after
	// their notifies, so the sweep at 450ms evicts all three, worker 2's
	// clock pinning the gate at 0 until it is the last member. When the two
	// parked workers come back (a partition heals), re-admission must
	// release them.
	ws := []*scriptWorker{
		{notifies: []time.Duration{100 * time.Millisecond}},
		{notifies: []time.Duration{120 * time.Millisecond}},
		{}, // never reaches the barrier
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers:         3,
		Scheme:          scheme.Config{Base: scheme.BSP},
		InitialSpan:     time.Second,
		LivenessTimeout: 300 * time.Millisecond,
	}, ws)
	sim.RunFor(2 * time.Second)
	if alive := sched.Alive(); alive[0] || alive[1] || alive[2] {
		t.Fatalf("membership = %v, want every worker evicted", alive)
	}
	for i := 0; i < 2; i++ {
		if err := sim.Inject(node.WorkerID(i), node.Scheduler, &msg.Heartbeat{Iter: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if got := ws[i].releases; len(got) == 0 || got[len(got)-1] != 1 {
			t.Errorf("worker %d releases = %v, want clock 1 after re-admission", i, got)
		}
	}
}

// buildMixedSim mirrors buildSim but accepts arbitrary worker handlers.
func buildMixedSim(t *testing.T, sched *Scheduler, workers []node.Handler) *des.Sim {
	t.Helper()
	sim, err := des.New(des.Config{Seed: 1, Registry: msg.Registry()})
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
	return sim
}

// TestReadmissionResendsRelease: a worker evicted while the gate moved on
// without it may have missed those releases (a partition drops them); on
// re-admission it is sent the current one.
func TestReadmissionResendsRelease(t *testing.T) {
	ws := []*scriptWorker{
		{notifies: mkDur(100, 200, 300, 400)},
		{notifies: mkDur(120)}, // then silent until the heartbeat below
	}
	sim, sched := buildSim(t, SchedulerConfig{
		Workers:         2,
		Scheme:          scheme.Config{Base: scheme.SSP, Staleness: 5},
		InitialSpan:     time.Second,
		LivenessTimeout: 300 * time.Millisecond,
	}, ws)
	sim.RunFor(600 * time.Millisecond)
	if alive := sched.Alive(); !alive[0] || alive[1] {
		t.Fatalf("membership = %v, want worker 1 alone evicted", alive)
	}
	before := len(ws[1].releases)
	if err := sim.Inject(node.WorkerID(1), node.Scheduler, &msg.Heartbeat{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(100 * time.Millisecond)
	if got := ws[1].releases; len(got) != before+1 || got[len(got)-1] != 4 {
		t.Errorf("worker 1 releases = %v, want one more, of clock 4, after re-admission", got)
	}
}
