package trace

import (
	"sync"
	"testing"
	"time"
)

func ts(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Record(Event{Kind: KindPull}) // must not panic
	if c.Events() != nil {
		t.Error("nil collector should return nil events")
	}
	if c.Count(KindPull) != 0 {
		t.Error("nil collector count should be 0")
	}
	if c.CountByWorker(KindPull) != nil {
		t.Error("nil collector CountByWorker should be nil")
	}
	if res := c.PAP(PAPConfig{Interval: time.Second, Buckets: 2}); len(res.PerBucket) != 2 ||
		len(res.PerBucket[0]) != 0 || len(res.PerBucket[1]) != 0 {
		t.Errorf("nil collector PAP = %v, want two empty buckets", res.PerBucket)
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	c.Record(Event{At: ts(1), Worker: 0, Kind: KindPull})
	c.Record(Event{At: ts(2), Worker: 0, Kind: KindPush})
	c.Record(Event{At: ts(3), Worker: 1, Kind: KindPush})
	c.Record(Event{At: ts(4), Worker: 1, Kind: KindAbort})

	if got := c.Count(KindPush); got != 2 {
		t.Errorf("Count(push) = %d", got)
	}
	by := c.CountByWorker(KindPush)
	if by[0] != 1 || by[1] != 1 {
		t.Errorf("CountByWorker = %v", by)
	}
	if len(c.Events()) != 4 {
		t.Errorf("Events len = %d", len(c.Events()))
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if evs := c.Events(); evs == nil || len(evs) != 0 {
		t.Errorf("empty collector Events() = %#v, want an empty non-nil slice", evs)
	}
	if c.Count(KindPush) != 0 {
		t.Error("empty collector count should be 0")
	}
	if by := c.CountByWorker(KindPush); by == nil || len(by) != 0 {
		t.Errorf("empty collector CountByWorker = %#v, want an empty map", by)
	}
}

func TestCollectorConcurrentSafety(t *testing.T) {
	const goroutines, per = 8, 400 // 3200 events: four chunks
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Record(Event{Worker: g, Kind: KindPush, Iter: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := c.Count(KindPush); got != goroutines*per {
		t.Errorf("Count = %d, want %d", got, goroutines*per)
	}
	// Each goroutine's events keep their order across chunk boundaries.
	next := make([]int64, goroutines)
	for _, ev := range c.Events() {
		if ev.Iter != next[ev.Worker] {
			t.Fatalf("worker %d: event %d out of order, want %d", ev.Worker, ev.Iter, next[ev.Worker])
		}
		next[ev.Worker]++
	}
}

func TestEventsAcrossChunksInOrder(t *testing.T) {
	const n = 3*chunkLen + 5 // crosses three chunk boundaries
	c := NewCollector()
	for i := 0; i < n; i++ {
		c.Record(Event{At: ts(i), Worker: i % 3, Kind: KindPull + Kind(i%2), Iter: int64(i)})
	}
	evs := c.Events()
	if len(evs) != n || cap(evs) != n {
		t.Fatalf("Events() len %d cap %d, want %d", len(evs), cap(evs), n)
	}
	for i, ev := range evs {
		if ev.Iter != int64(i) || !ev.At.Equal(ts(i)) {
			t.Fatalf("event %d = %+v, want iteration %d", i, ev, i)
		}
	}
	if got, want := c.Count(KindPush), n/2; got != want {
		t.Errorf("Count(push) = %d, want %d", got, want)
	}
	by := c.CountByWorker(KindPull)
	if sum := by[0] + by[1] + by[2]; sum != n-n/2 {
		t.Errorf("CountByWorker(pull) = %v, sums to %d, want %d", by, sum, n-n/2)
	}
	// Events returns a copy: writing to it leaves the trace as it was.
	evs[0].Iter = -1
	if c.Events()[0].Iter != 0 {
		t.Error("Events() shares storage with the collector")
	}
}

func TestCollectorAllocs(t *testing.T) {
	c := NewCollector()
	ev := Event{At: ts(1), Kind: KindPush}
	// A chunk's worth of records allocates the chunk; the slice of chunks
	// grows by doubling, so its share rounds away over the runs.
	fill := func() {
		for i := 0; i < chunkLen; i++ {
			c.Record(ev)
		}
	}
	if allocs := testing.AllocsPerRun(20, fill); allocs > 1 {
		t.Errorf("%d records allocated %.0f times per run, want at most 1", chunkLen, allocs)
	}
	c.Record(ev) // a partly filled last chunk
	if allocs := testing.AllocsPerRun(20, func() { _ = c.Events() }); allocs != 1 {
		t.Errorf("Events() allocated %.0f times, want 1", allocs)
	}
}

func BenchmarkCollectorRecord(b *testing.B) {
	// A fresh collector every 64 chunks bounds the benchmark's heap at
	// ≈ 3.7 MB, about one sim_paper run's trace.
	const perCollector = 64 * chunkLen
	var c *Collector
	ev := Event{At: ts(1), Worker: 3, Kind: KindPush, Iter: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perCollector == 0 {
			c = NewCollector()
		}
		c.Record(ev)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindPull: "pull", KindPush: "push", KindAbort: "abort",
		KindReSync: "resync", KindStaleness: "staleness", KindEpoch: "epoch",
		KindCrash: "crash", KindRecover: "recover", KindEvict: "evict",
		Kind(99): "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestPAPCountsPeerPushesOnly(t *testing.T) {
	c := NewCollector()
	// Worker 0 pulls at t=0. Pushes: worker 1 at 200ms and 700ms (bucket 0),
	// worker 0's own at 500ms (must not count), worker 2 at 1500ms
	// (bucket 1), and a horizon-setting push at 3000ms.
	c.Record(Event{At: ts(0), Worker: 0, Kind: KindPull})
	c.Record(Event{At: ts(200), Worker: 1, Kind: KindPush})
	c.Record(Event{At: ts(500), Worker: 0, Kind: KindPush})
	c.Record(Event{At: ts(700), Worker: 1, Kind: KindPush})
	c.Record(Event{At: ts(1500), Worker: 2, Kind: KindPush})
	c.Record(Event{At: ts(3000), Worker: 3, Kind: KindPush})

	res := c.PAP(PAPConfig{Interval: time.Second, Buckets: 2})
	if len(res.PerBucket[0]) != 1 || res.PerBucket[0][0] != 2 {
		t.Errorf("bucket 0 = %v, want [2]", res.PerBucket[0])
	}
	if len(res.PerBucket[1]) != 1 || res.PerBucket[1][0] != 1 {
		t.Errorf("bucket 1 = %v, want [1]", res.PerBucket[1])
	}
}

func TestPAPSkipsTruncatedWindows(t *testing.T) {
	c := NewCollector()
	c.Record(Event{At: ts(0), Worker: 0, Kind: KindPull})
	c.Record(Event{At: ts(100), Worker: 1, Kind: KindPush}) // horizon = 100ms
	res := c.PAP(PAPConfig{Interval: time.Second, Buckets: 3})
	// The 0-1s window extends past the last push; it must be skipped.
	for k, b := range res.PerBucket {
		if len(b) != 0 {
			t.Errorf("bucket %d should be empty (truncated), got %v", k, b)
		}
	}
}

func TestPAPEmptyAndInvalidConfig(t *testing.T) {
	c := NewCollector()
	res := c.PAP(PAPConfig{Interval: time.Second, Buckets: 2})
	for _, b := range res.PerBucket {
		if len(b) != 0 {
			t.Error("empty trace must give empty buckets")
		}
	}
	res = c.PAP(PAPConfig{Interval: 0, Buckets: 0})
	if len(res.PerBucket) != 0 {
		t.Error("invalid config must give no buckets")
	}
}
