package des

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"specsync/internal/node"
	"specsync/internal/obs"
)

// oracleSim is the event machinery this package had before the typed queue:
// container/heap over pointers, time.Time keys, a closure per event. The heap,
// scheduleAt and Step are copied verbatim (event and eventHeap renamed, Step
// cut down to the clock and the callback).
type oracleEvent struct {
	at  time.Time
	seq uint64 // tie-break for determinism
	fn  func()
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(*oracleEvent)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type oracleSim struct {
	now   time.Time
	queue oracleHeap
	seq   uint64
}

func (s *oracleSim) scheduleAt(at time.Time, f func()) node.CancelFunc {
	if at.Before(s.now) {
		at = s.now
	}
	canceled := false
	ev := &oracleEvent{at: at, seq: s.seq, fn: func() {
		if !canceled {
			f()
		}
	}}
	s.seq++
	heap.Push(&s.queue, ev)
	return func() { canceled = true }
}

func (s *oracleSim) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*oracleEvent)
	if ev.at.After(s.now) {
		s.now = ev.at
	}
	ev.fn()
	return true
}

// TestQueueMatchesContainerHeap drives the simulator and the old machinery
// with the same random schedule — many ties on the firing time, delays that
// point before now, cancellations, pushes interleaved with pops — and requires
// the same event at the same virtual time out of every pop.
func TestQueueMatchesContainerHeap(t *testing.T) {
	s := newSim(t, Config{Seed: 1})
	s.Init()
	old := &oracleSim{now: s.Now()}
	rng := rand.New(rand.NewSource(7))

	var got, want []int
	var cancels [][2]node.CancelFunc
	id, pops := 0, 0
	for op := 0; op < 200_000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			d := time.Duration(rng.Intn(8)-2) * time.Millisecond // 8 distinct times, 2 of them in the past
			id++
			id := id
			cancels = append(cancels, [2]node.CancelFunc{
				s.Schedule(d, func() { got = append(got, id) }),
				old.scheduleAt(old.now.Add(d), func() { want = append(want, id) }),
			})
		case r < 6 && len(cancels) > 0:
			pair := cancels[rng.Intn(len(cancels))] // pending, fired or already cancelled
			pair[0]()
			pair[1]()
		default:
			if s.Step() != old.Step() {
				t.Fatalf("op %d: one queue is empty and the other is not", op)
			}
			pops++
			if !s.Now().Equal(old.now) {
				t.Fatalf("op %d: clock at %v, the old machinery's at %v", op, s.Now(), old.now)
			}
			if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
				t.Fatalf("op %d: fired %v, the old machinery fired %v", op, tail(got), tail(want))
			}
		}
	}
	for s.Step() {
	}
	for old.Step() {
	}
	if !slices.Equal(got, want) || len(got) < 50_000 {
		t.Fatalf("after the drain: %d events fired, %d by the old machinery, in the same order: %v", len(got), len(want), slices.Equal(got, want))
	}
	t.Logf("%d pushes, %d pops, %d fired", id, pops, len(got))
}

func tail(ids []int) []int { return ids[max(0, len(ids)-3):] }

// scribble overwrites every vacant slab slot with a body that fails the test
// if anything ever runs it, as a reader of a stale slot would.
func scribble(t *testing.T, s *Sim) {
	for _, slot := range s.free {
		s.slab[slot] = event{seq: math.MaxUint64, fn: func() { t.Error("a vacated slab slot was run") }}
	}
}

func TestCancelNamesOneEvent(t *testing.T) {
	s := newSim(t, Config{Seed: 1, Metrics: obs.NewRegistry()})
	s.Init()
	fired := map[string]bool{}
	arm := func(name string, d time.Duration) node.CancelFunc {
		return s.Schedule(d, func() { fired[name] = true })
	}

	// Cancelled before it fires: it does not run, but it is still an event.
	arm("early", time.Millisecond)()
	if !s.Step() || fired["early"] {
		t.Fatalf("a cancelled event: fired %v, want a step that runs nothing", fired["early"])
	}
	if s.Elapsed() != time.Millisecond || s.metSteps.Value() != 1 {
		t.Errorf("a cancelled event left the clock at %v after %d steps, want 1ms and 1", s.Elapsed(), s.metSteps.Value())
	}

	// Cancelled after it fired, first with its slot vacant, then with the
	// slot's next occupant pending: that one must still fire.
	stale := arm("first", time.Millisecond)
	s.Step()
	stale()
	scribble(t, s)
	arm("second", time.Millisecond)
	if len(s.slab) != 1 {
		t.Fatalf("slab has %d slots, want the one slot reused", len(s.slab))
	}
	stale()
	s.RunUntilIdle(time.Second)
	if !fired["first"] || !fired["second"] {
		t.Errorf("fired %v, want first and second: a stale cancel hit the slot's next occupant", fired)
	}
}

// TestCallbackMayGrowAndReuseSlab: the running event's slot is vacant while
// its callback runs, so what the callback schedules takes that slot first and
// then grows the slab under every other pending event.
func TestCallbackMayGrowAndReuseSlab(t *testing.T) {
	s := newSim(t, Config{Seed: 1})
	s.Init()
	var got []int
	note := func(id int) func() { return func() { got = append(got, id) } }
	const pending, burst = 8, 1000
	s.Schedule(0, func() {
		scribble(t, s) // this event's own slot, now vacant
		for i := 0; i < burst; i++ {
			s.Schedule(time.Duration(pending+1+i)*time.Millisecond, note(pending+1+i))
		}
		if len(s.slab) < burst || len(s.free) != 0 {
			t.Errorf("slab %d slots, %d vacant: the burst neither grew it nor reused the running event's slot", len(s.slab), len(s.free))
		}
	})
	for i := 1; i <= pending; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, note(i))
	}
	for s.Step() {
		scribble(t, s)
	}
	want := make([]int, pending+burst)
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(got, want) {
		t.Errorf("fired %d events, want %d in time order; first ones %v", len(got), len(want), got[:min(len(got), 12)])
	}
}

// TestDeadlinesSaturate: "now + the largest Duration" overflows int64
// nanoseconds once the clock is past zero; it has to mean never.
func TestDeadlinesSaturate(t *testing.T) {
	s := newSim(t, Config{Seed: 1})
	if err := s.AddNode("worker/0", &echoNode{}); err != nil {
		t.Fatal(err)
	}
	s.Init()
	s.RunFor(time.Second)

	fired := 0
	s.Schedule(time.Minute, func() { fired++ })
	if why := s.RunUntilIdle(math.MaxInt64); why != "idle" || fired != 1 {
		t.Errorf("RunUntilIdle(max) = %q with %d fired, want idle and 1", why, fired)
	}
	s.Schedule(time.Minute, func() { fired++ })
	s.RunFor(time.Hour)
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}

	never := false
	s.nodes["worker/0"].After(math.MaxInt64, func() { never = true })
	s.Schedule(math.MaxInt64, func() { never = true })
	if why := s.RunUntilIdle(1000 * time.Hour); why != "deadline" || never {
		t.Errorf("RunUntilIdle = %q, timer for the end of time fired: %v; want deadline and false", why, never)
	}
}

// TestInjectedDeliveriesAreCounted: Delivered() and the exported counter are
// bumped at one place, so they agree whatever mix of Send and Inject a run
// makes, and a message dropped at a dead node is in neither.
func TestInjectedDeliveriesAreCounted(t *testing.T) {
	s := newSim(t, Config{Seed: 1, Metrics: obs.NewRegistry(), Net: NetModel{Latency: time.Millisecond}})
	a, b := &echoNode{}, &echoNode{reply: true}
	if err := s.AddNode("worker/0", a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode("worker/1", b); err != nil {
		t.Fatal(err)
	}
	s.Init()
	s.nodes["worker/0"].Send("worker/1", &ping{Seq: 1}) // and its reply
	for seq := 2; seq <= 3; seq++ {
		if err := s.Inject("probe", "worker/1", &ping{Seq: seq}); err != nil { // and its reply, to nobody
			t.Fatal(err)
		}
	}
	s.RunUntilIdle(time.Second)
	if err := s.Crash("worker/1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject("probe", "worker/1", &ping{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle(time.Second)

	if _, dead := s.FaultDrops(); dead != 1 {
		t.Errorf("%d dead drops, want 1", dead)
	}
	if len(a.seen) != 1 || len(b.seen) != 3 {
		t.Fatalf("handlers saw %d and %d messages, want 1 and 3", len(a.seen), len(b.seen))
	}
	if s.Delivered() != 4 || s.metDelivered.Value() != 4 {
		t.Errorf("Delivered() = %d, specsync_sim_delivered_total = %d, want 4 and 4", s.Delivered(), s.metDelivered.Value())
	}
}

// fastQuartile runs op n times and returns the lower quartile of what stat
// grew by per run. The program's own cost is the fast side of that
// distribution; the slow side is sync.Pool dropping a Put (under the race
// detector it drops one in four) and the next operation paying for the refill.
func fastQuartile(n int, op func(), stat func(*runtime.MemStats) uint64) uint64 {
	costs := make([]uint64, n)
	var before, after runtime.MemStats
	for i := range costs {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		costs[i] = stat(&after) - stat(&before)
	}
	slices.Sort(costs)
	return costs[n/4]
}

func mallocs(m *runtime.MemStats) uint64 { return m.Mallocs }

// TestEventsAllocateNoMachinery: an event is data in the slab. A delivery of
// a recycled kind allocates nothing from Send to Receive, and a timer only the
// cancel handle its caller is given.
func TestEventsAllocateNoMachinery(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pools once
	for _, tc := range []struct {
		name string
		sim  *Sim
		max  uint64
	}{
		{"deliver + send", pingPongSim(t, 64, true), 0},
		{"fire + arm", timerSim(t, 64), 1},
	} {
		for i := 0; i < 1024; i++ { // slab, heap and pools at their working size
			tc.sim.Step()
		}
		if per := fastQuartile(51, func() { tc.sim.Step() }, mallocs); per > tc.max {
			t.Errorf("%s: %d objects allocated per event, want at most %d", tc.name, per, tc.max)
		}
	}
}
