package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"specsync/internal/wire"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Last() != (Point{}) {
		t.Error("empty series basics")
	}
	if !math.IsInf(s.Min(), 1) {
		t.Error("empty Min should be +Inf")
	}
	if !math.IsNaN(s.ValueAt(time.Second)) {
		t.Error("empty ValueAt should be NaN")
	}
	s.Add(1*time.Second, 5)
	s.Add(2*time.Second, 3)
	s.Add(3*time.Second, 4)
	if s.Min() != 3 {
		t.Errorf("Min = %v", s.Min())
	}
	if s.Last().V != 4 {
		t.Errorf("Last = %v", s.Last())
	}
	if got := s.ValueAt(2500 * time.Millisecond); got != 3 {
		t.Errorf("ValueAt(2.5s) = %v, want 3", got)
	}
	if got := s.ValueAt(500 * time.Millisecond); got != 5 {
		t.Errorf("ValueAt(0.5s) = %v, want first value", got)
	}
	if got := s.ValueAt(10 * time.Second); got != 4 {
		t.Errorf("ValueAt(10s) = %v, want last value", got)
	}
}

func TestTimeToConverge(t *testing.T) {
	var s Series
	vals := []float64{10, 8, 4, 6, 3, 2, 2, 2, 2, 2}
	for i, v := range vals {
		s.Add(time.Duration(i)*time.Second, v)
	}
	// Target 5: dips below at i=2 (streak broken at i=3), then from i=4 on.
	// With 5 consecutive required, streak starts at i=4.
	got, ok := s.TimeToConverge(5, 5)
	if !ok || got != 4*time.Second {
		t.Errorf("TimeToConverge = %v/%v, want 4s/true", got, ok)
	}
	if _, ok := s.TimeToConverge(1, 5); ok {
		t.Error("should not converge to 1")
	}
	// consecutive < 1 behaves as 1.
	got, ok = s.TimeToConverge(5, 0)
	if !ok || got != 2*time.Second {
		t.Errorf("TimeToConverge(c=0) = %v/%v", got, ok)
	}
}

func TestDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	d := s.Downsample(10)
	if len(d) != 10 {
		t.Fatalf("len = %d", len(d))
	}
	if d[0].V != 0 || d[9].V != 99 {
		t.Errorf("endpoints: %v ... %v", d[0], d[9])
	}
	// One point is the last one; two are the endpoints.
	if got := s.Downsample(1); len(got) != 1 || got[0].V != 99 {
		t.Errorf("Downsample(1) = %v, want the last point", got)
	}
	if got := s.Downsample(2); len(got) != 2 || got[0].V != 0 || got[1].V != 99 {
		t.Errorf("Downsample(2) = %v, want the endpoints", got)
	}
	// No-op when n >= len.
	if got := s.Downsample(200); len(got) != 100 {
		t.Errorf("oversized downsample len = %d", len(got))
	}
}

func TestPercentileAndBox(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := BoxOf(vals)
	if b.N != 10 {
		t.Errorf("N = %d", b.N)
	}
	if b.P50 != 5.5 {
		t.Errorf("P50 = %v, want 5.5", b.P50)
	}
	if b.P5 >= b.P25 || b.P25 >= b.P50 || b.P50 >= b.P75 || b.P75 >= b.P95 {
		t.Errorf("box not monotone: %+v", b)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(vals, 100); got != 10 {
		t.Errorf("P100 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	zero := BoxOf(nil)
	if zero.N != 0 {
		t.Error("empty box should be zero")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

func TestTransferAccounting(t *testing.T) {
	isControl := func(k wire.Kind) bool { return k >= 100 }
	tr := NewTransfer(isControl)
	tr.RecordTransfer("worker/0", "server/0", 1, 1000, time.Unix(0, 0))
	tr.RecordTransfer("worker/0", "server/0", 1, 500, time.Unix(1, 0))
	tr.RecordTransfer("worker/0", "scheduler", 100, 8, time.Unix(2, 0))

	if got := tr.TotalBytes(); got != 1508 {
		t.Errorf("TotalBytes = %d", got)
	}
	b, m := tr.KindBytes(1)
	if b != 1500 || m != 2 {
		t.Errorf("KindBytes(1) = %d/%d", b, m)
	}
	if b, m := tr.KindBytes(42); b != 0 || m != 0 {
		t.Errorf("unknown kind = %d/%d", b, m)
	}
	data, control := tr.Split()
	if data != 1500 || control != 8 {
		t.Errorf("Split = %d/%d", data, control)
	}
	bd := tr.Breakdown()
	if bd[1].Bytes != 1500 || bd[100].Msgs != 1 {
		t.Errorf("Breakdown = %+v", bd)
	}
}

func TestTransferConcurrent(t *testing.T) {
	tr := NewTransfer(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.RecordTransfer("a", "b", 1, 1, time.Time{})
			}
		}()
	}
	wg.Wait()
	if got := tr.TotalBytes(); got != 8000 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
		7 << 40: "7.00 TiB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestSeriesConcurrent exercises Series under the race detector: concurrent
// appenders (the live probe loop) against concurrent readers (monitoring
// endpoints).
func TestSeriesConcurrent(t *testing.T) {
	var s Series
	var wg sync.WaitGroup
	const writers, perWriter = 4, 250
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(time.Duration(w*perWriter+i)*time.Millisecond, float64(i))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Len()
				s.Last()
				s.Min()
				s.ValueAt(time.Duration(i) * time.Millisecond)
				s.Snapshot()
				s.Downsample(10)
				s.TimeToConverge(0.5, 3)
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Errorf("lost samples: %d, want %d", s.Len(), writers*perWriter)
	}
	snap := s.Snapshot()
	if len(snap) != s.Len() {
		t.Errorf("snapshot length %d != len %d", len(snap), s.Len())
	}
	// Snapshot is a copy: mutating it must not affect the series.
	snap[0].V = -1
	if s.Snapshot()[0].V == -1 {
		t.Error("Snapshot aliases internal storage")
	}
}

func TestTransferThroughput(t *testing.T) {
	tr := NewTransfer(nil)
	base := time.Unix(0, 0).UTC()
	kind := wire.Kind(1)

	if _, _, ok := tr.KindWindow(kind); ok {
		t.Error("window reported before any record")
	}
	if tp := tr.KindThroughput(kind); tp != 0 {
		t.Errorf("throughput before records = %v", tp)
	}

	tr.RecordTransfer("a", "b", kind, 1000, base)
	// One record: a zero-width window has no measurable rate.
	if tp := tr.KindThroughput(kind); tp != 0 {
		t.Errorf("single-record throughput = %v, want 0", tp)
	}
	first, last, ok := tr.KindWindow(kind)
	if !ok || !first.Equal(base) || !last.Equal(base) {
		t.Errorf("window = %v..%v (%v)", first, last, ok)
	}

	tr.RecordTransfer("a", "b", kind, 3000, base.Add(2*time.Second))
	first, last, ok = tr.KindWindow(kind)
	if !ok || !first.Equal(base) || !last.Equal(base.Add(2*time.Second)) {
		t.Errorf("window = %v..%v (%v)", first, last, ok)
	}
	// 4000 bytes over 2 seconds.
	if tp := tr.KindThroughput(kind); math.Abs(tp-2000) > 1e-9 {
		t.Errorf("throughput = %v, want 2000", tp)
	}

	// Out-of-order timestamps (live transport goroutines) extend the window
	// backwards rather than corrupting it.
	tr.RecordTransfer("a", "b", kind, 1000, base.Add(-1*time.Second))
	first, _, _ = tr.KindWindow(kind)
	if !first.Equal(base.Add(-1 * time.Second)) {
		t.Errorf("first not extended backwards: %v", first)
	}
}

func TestTransferWritePrometheus(t *testing.T) {
	tr := NewTransfer(nil)
	base := time.Unix(0, 0).UTC()
	tr.RecordTransfer("a", "b", wire.Kind(2), 100, base)
	tr.RecordTransfer("a", "b", wire.Kind(2), 100, base.Add(time.Second))
	tr.RecordTransfer("a", "b", wire.Kind(1), 50, base)

	name := func(k wire.Kind) string {
		if k == 1 {
			return "PullReq"
		}
		return "PushReq"
	}
	var sb strings.Builder
	tr.WritePrometheus(&sb, name)
	out := sb.String()
	for _, want := range []string{
		`specsync_transfer_bytes_total{kind="PullReq"} 50`,
		`specsync_transfer_bytes_total{kind="PushReq"} 200`,
		`specsync_transfer_msgs_total{kind="PushReq"} 2`,
		`specsync_transfer_bytes_per_sec{kind="PushReq"} 200`,
		`specsync_transfer_bytes_per_sec{kind="PullReq"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Kinds render in numeric order for deterministic output.
	if strings.Index(out, "PullReq") > strings.Index(out, "PushReq") {
		t.Error("kinds not sorted numerically")
	}
	var sb2 strings.Builder
	tr.WritePrometheus(&sb2, name)
	if sb2.String() != out {
		t.Error("two exposition writes differ")
	}
}

// BenchmarkRecordTransfer is the per-message cost of the byte ledger: every
// simulated or live send records once.
func BenchmarkRecordTransfer(b *testing.B) {
	tr := NewTransfer(func(k wire.Kind) bool { return k > 8 })
	at := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RecordTransfer("worker/0", "server/0", wire.Kind(i&15), 220, at)
	}
}
