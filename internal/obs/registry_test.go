package obs

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	// A value exactly on a bound lands in that bound's bucket (le semantics).
	cases := []struct {
		v    float64
		want int // bucket index
	}{
		{0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.1, 2}, {5, 2}, {5.1, 3}, {100, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	wantCounts := []int64{2, 2, 2, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	wantSum := 0.5 + 1 + 1.5 + 2 + 2.1 + 5 + 5.1 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramObserveMatchesSearchFloat64s: Observe files every value in the
// bucket sort.SearchFloat64s names, and counts it once — values on a bound, a
// hair either side of one, ±0, ±Inf against bound lists with and without
// infinite bounds, NaN (the overflow bucket) and random values.
func TestHistogramObserveMatchesSearchFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bounds := range [][]float64{
		{1}, {1, 2, 5}, LatencyBuckets, StalenessBuckets,
		{math.Inf(-1), -1, 0, 1, math.Inf(1)},
	} {
		vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1e300, 1e300}
		for _, b := range bounds {
			vs = append(vs, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for k := 0; k < 200; k++ {
			vs = append(vs, (rng.Float64()-0.1)*2*bounds[len(bounds)/2])
		}
		for _, v := range vs {
			h, err := NewHistogram(bounds)
			if err != nil {
				t.Fatal(err)
			}
			h.Observe(v)
			want := sort.SearchFloat64s(bounds, v)
			if snap := h.Snapshot(); snap.Counts[want] != 1 || snap.Count != 1 {
				t.Errorf("bounds %v: Observe(%v) filled %v (count %d), want bucket %d", bounds, v, snap.Counts, snap.Count, want)
			}
		}
	}
}

// BenchmarkHistogramObserve is one Observe into the latency buckets, on a
// spread of values that visits every bucket.
func BenchmarkHistogramObserve(b *testing.B) {
	h, err := NewHistogram(LatencyBuckets)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = math.Exp(float64(i%64)/4 - 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vs[i%len(vs)])
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-ascending bounds accepted")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Error("descending bounds accepted")
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	a, _ := NewHistogram([]float64{1, 2})
	b, _ := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	a.Observe(1.5)
	b.Observe(1.5)
	b.Observe(10)

	m, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Counts, []int64{1, 2, 1}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("merged counts = %v, want %v", got, want)
	}
	if m.Count != 4 {
		t.Errorf("merged count = %d, want 4", m.Count)
	}
	if math.Abs(m.Sum-13.5) > 1e-9 {
		t.Errorf("merged sum = %v, want 13.5", m.Sum)
	}

	// Merging with an empty snapshot passes the other side through.
	if m2, err := (HistSnapshot{}).Merge(a.Snapshot()); err != nil || m2.Count != a.Snapshot().Count {
		t.Errorf("empty merge: %v, %v", m2, err)
	}

	// Mismatched bounds are an error.
	c, _ := NewHistogram([]float64{1, 3})
	c.Observe(1)
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Error("mismatched bounds merged without error")
	}
	d, _ := NewHistogram([]float64{1})
	d.Observe(1)
	if _, err := a.Snapshot().Merge(d.Snapshot()); err == nil {
		t.Error("different bucket counts merged without error")
	}
}

func TestHistSnapshotQuantileAndMean(t *testing.T) {
	h, _ := NewHistogram([]float64{1, 2, 5})
	if !math.IsNaN(h.Snapshot().Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // bucket le=1
	}
	h.Observe(4) // bucket le=5
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 1 {
		t.Errorf("p50 = %v, want 1", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Errorf("p100 = %v, want 5", q)
	}
	h.Observe(100) // overflow maps to the largest finite bound
	if q := h.Snapshot().Quantile(1); q != 5 {
		t.Errorf("overflow quantile = %v, want 5", q)
	}
	if m := h.Snapshot().Mean(); math.Abs(m-(10*0.5+4+100)/12) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var l *SpanLog
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	l.Add(Span{})
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || l.Len() != 0 {
		t.Error("nil instruments returned non-zero values")
	}
	if r.Counter("x", "") != nil || r.SumCounters("x") != 0 {
		t.Error("nil registry not inert")
	}
	r.WritePrometheus(nil)
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "help", "worker", "0")
	b := r.Counter("requests_total", "help", "worker", "0")
	if a != b {
		t.Error("same (name, labels) returned different counters")
	}
	other := r.Counter("requests_total", "help", "worker", "1")
	if a == other {
		t.Error("different labels returned the same counter")
	}
	a.Add(2)
	other.Inc()
	if got := r.SumCounters("requests_total"); got != 3 {
		t.Errorf("SumCounters = %d, want 3", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("requests_total", "help")
}

// TestCounterConcurrentAdds: goroutines that look one counter up by name and
// add to it concurrently, as the live TCP hosts of one process count send
// failures, lose no increment (run under -race).
func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("specsync_live_send_failures_total", "help").Inc()
				r.Counter("specsync_fault_dropped_messages_total", "help").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := r.SumCounters("specsync_live_send_failures_total"); got != 800 {
		t.Errorf("send failures = %d, want 800", got)
	}
	if got := r.SumCounters("specsync_fault_dropped_messages_total"); got != 1600 {
		t.Errorf("drops = %d, want 1600", got)
	}
}

// TestFaultLedger: each record lands in its own counter once (a scheduler
// crash or restore in the generic total too), a nil ledger is inert, and
// Totals reads the scheduler's counters alongside.
func TestFaultLedger(t *testing.T) {
	var none *FaultObs
	none.Crash(true)
	none.Restore(true)
	none.LostPushes(3)
	none.Drop()
	if none.Totals() != nil {
		t.Error("nil ledger has totals")
	}

	o := New(Options{})
	f := o.Faults()
	f.Crash(false)
	f.Crash(true)
	f.Restart()
	f.Restore(true)
	f.Checkpoint()
	f.LostPushes(0)
	f.LostPushes(5)
	f.Promotion()
	f.Election()
	f.SnapshotShipped()
	f.Drop()
	f.Duplicate()
	f.Delay()
	s := o.Scheduler()
	s.Evict(time.Unix(0, 0), 1, 1)
	s.StateReport()
	s.Started(time.Unix(0, 0), 1, true)
	s.Started(time.Unix(0, 0), 2, false)
	want := FaultTotals{
		Crashes: 2, Restarts: 1, Restores: 1, Checkpoints: 1, LostPushes: 5,
		Drops: 1, Duplicates: 1, Delays: 1,
		SchedulerCrashes: 1, SchedulerRestarts: 1, SchedulerRestores: 1,
		Evictions: 1, StateReports: 1,
		Promotions: 1, Elections: 1, SnapshotsShipped: 1,
	}
	if got := *o.Faults().Totals(); got != want {
		t.Errorf("Totals = %+v, want %+v", got, want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counter", "worker", "1").Add(7)
	r.Counter("b_total", "b counter", "worker", "0").Add(3)
	r.Gauge("a_gauge", "a gauge").Set(2.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)
	r.SetCollector("extra", func(w io.Writer) { io.WriteString(w, "extra_metric 1\n") })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP a_gauge a gauge\n# TYPE a_gauge gauge\na_gauge 2.5\n",
		"# TYPE b_total counter\n",
		"b_total{worker=\"0\"} 3\n",
		"b_total{worker=\"1\"} 7\n",
		"lat_seconds_bucket{le=\"0.1\"} 1\n",
		"lat_seconds_bucket{le=\"1\"} 2\n",
		"lat_seconds_bucket{le=\"+Inf\"} 3\n",
		"lat_seconds_sum 10.55\n",
		"lat_seconds_count 3\n",
		"extra_metric 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families sorted by name: a_gauge before b_total before lat_seconds.
	if ai, bi := strings.Index(out, "a_gauge"), strings.Index(out, "b_total"); ai > bi {
		t.Error("families not sorted by name")
	}
	// Label variants sorted within a family.
	if i0, i1 := strings.Index(out, `worker="0"`), strings.Index(out, `worker="1"`); i0 > i1 {
		t.Error("label variants not sorted")
	}
	// Deterministic: a second write produces identical bytes.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Error("two exposition writes differ")
	}
}

// TestWorkerPhaseHistogramExposition pins the exposition format of the
// labeled per-worker phase histograms: cumulative le buckets, +Inf, _sum and
// _count, all carrying the worker/phase label pairs, so Prometheus can
// compute phase quantiles per worker.
func TestWorkerPhaseHistogramExposition(t *testing.T) {
	o := New(Options{})
	w := o.Worker(2)
	base := time.Unix(0, 0)
	w.PullStart(base, 1)
	w.PullDone(base.Add(40*time.Millisecond), 1)     // pull: 0.04s
	w.ComputeDone(base.Add(540*time.Millisecond), 1) // compute: 0.5s
	w.PushDone(base.Add(590*time.Millisecond), 1, 0) // push: 0.05s

	w0 := o.Worker(0)
	w0.PullStart(base, 1)
	w0.PullDone(base.Add(100*time.Millisecond), 1)

	var sb strings.Builder
	o.Registry().WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE specsync_worker_phase_seconds histogram\n",
		`specsync_worker_phase_seconds_bucket{worker="2",phase="pull",le="0.05"} 1` + "\n",
		`specsync_worker_phase_seconds_bucket{worker="2",phase="pull",le="+Inf"} 1` + "\n",
		`specsync_worker_phase_seconds_sum{worker="2",phase="pull"} 0.04` + "\n",
		`specsync_worker_phase_seconds_count{worker="2",phase="pull"} 1` + "\n",
		`specsync_worker_phase_seconds_bucket{worker="2",phase="compute",le="0.5"} 1` + "\n",
		`specsync_worker_phase_seconds_count{worker="2",phase="push"} 1` + "\n",
		`specsync_worker_phase_seconds_count{worker="0",phase="pull"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Buckets are cumulative: every le bound above the observation reports
	// the same count as +Inf for a single-observation series.
	if strings.Contains(out, `specsync_worker_phase_seconds_bucket{worker="2",phase="pull",le="0.025"} 1`) {
		// 0.04 must NOT land in the 0.025 bucket.
		t.Error("0.04s observation counted in le=0.025 bucket")
	}
}
