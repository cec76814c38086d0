// Package metrics provides the measurement primitives behind the
// experiments: loss time series with convergence detection (the paper's
// "loss below the target for 5 consecutive iterations"), transfer accounting
// by message class (Figs. 12-13), and percentile/box statistics (Fig. 3).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

// Point is one (elapsed time, value) observation.
type Point struct {
	T time.Duration
	V float64
}

// Series is an append-only time series of loss (or any metric) samples. It
// is safe for concurrent use: the live stack appends from transport callback
// goroutines while monitoring endpoints read. The zero value is ready to use.
// Series values must not be copied after first use (the mutex); share a
// *Series instead.
type Series struct {
	mu     sync.Mutex
	points []Point
}

// Add appends an observation.
func (s *Series) Add(t time.Duration, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{T: t, V: v})
	s.mu.Unlock()
}

// Snapshot returns a copy of all observations in append order.
func (s *Series) Snapshot() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Len returns the number of observations.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Last returns the final observation, or a zero Point for an empty series.
func (s *Series) Last() Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// Min returns the smallest value seen, or +Inf for an empty series.
func (s *Series) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := math.Inf(1)
	for _, p := range s.points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// ValueAt returns the latest value observed at or before t, or the first
// value if t precedes all samples.
func (s *Series) ValueAt(t time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].T > t })
	if i == 0 {
		return s.points[0].V
	}
	return s.points[i-1].V
}

// TimeToConverge returns the elapsed time at which the series first stayed
// below target for `consecutive` successive samples, mirroring the paper's
// convergence definition. The returned time is the first sample of the
// qualifying streak. ok is false if the series never converged.
func (s *Series) TimeToConverge(target float64, consecutive int) (time.Duration, bool) {
	if consecutive < 1 {
		consecutive = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	streak := 0
	var start time.Duration
	for _, p := range s.points {
		if p.V < target {
			if streak == 0 {
				start = p.T
			}
			streak++
			if streak >= consecutive {
				return start, true
			}
		} else {
			streak = 0
		}
	}
	return 0, false
}

// Downsample returns at most n points, evenly spaced over the series, always
// including the last. Rendering helpers use it.
func (s *Series) Downsample(n int) []Point {
	points := s.Snapshot()
	if n <= 0 || len(points) <= n {
		return points
	}
	if n == 1 {
		return points[len(points)-1:]
	}
	out := make([]Point, 0, n)
	step := float64(len(points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, points[int(float64(i)*step+0.5)])
	}
	out[len(out)-1] = points[len(points)-1]
	return out
}

// Box holds the five-number summary used by the paper's box plots
// (5th/25th/50th/75th/95th percentiles).
type Box struct {
	P5, P25, P50, P75, P95 float64
	N                      int
}

// BoxOf computes a Box over values. It returns a zero Box for empty input.
func BoxOf(values []float64) Box {
	if len(values) == 0 {
		return Box{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return Box{
		P5:  Percentile(sorted, 5),
		P25: Percentile(sorted, 25),
		P50: Percentile(sorted, 50),
		P75: Percentile(sorted, 75),
		P95: Percentile(sorted, 95),
		N:   len(sorted),
	}
}

// Percentile returns the p-th percentile (0-100) of sorted values using
// linear interpolation. The input must be sorted ascending.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Transfer accumulates wire bytes by message kind. It implements
// des.TransferRecorder and is safe for concurrent use (the live TCP
// transport records from multiple goroutines). It is the run's one byte
// ledger: codec.Stats reads its per-{kind, codec} series from it.
type Transfer struct {
	mu      sync.Mutex
	cells   []kindStats // indexed by kind; a cell with msgs == 0 is unseen
	total   int64
	classOf func(wire.Kind) bool // true = control
}

type kindStats struct {
	bytes int64
	msgs  int64
	// First/last-seen timestamps for throughput: virtual time under the
	// simulator, wall time live.
	first time.Time
	last  time.Time
}

// NewTransfer builds a Transfer; isControl classifies kinds into control vs
// data traffic (use msg.IsControl).
func NewTransfer(isControl func(wire.Kind) bool) *Transfer {
	return &Transfer{classOf: isControl}
}

// RecordTransfer implements des.TransferRecorder.
func (t *Transfer) RecordTransfer(from, to node.ID, kind wire.Kind, bytes int, at time.Time) {
	t.mu.Lock()
	if int(kind) >= len(t.cells) {
		t.cells = append(t.cells, make([]kindStats, int(kind)+1-len(t.cells))...)
	}
	ks := &t.cells[kind]
	if ks.msgs == 0 || at.Before(ks.first) {
		ks.first = at
	}
	if ks.msgs == 0 || at.After(ks.last) {
		ks.last = at
	}
	ks.bytes += int64(bytes)
	ks.msgs++
	t.total += int64(bytes)
	t.mu.Unlock()
}

// cell returns kind's stats, or nil when it has never been recorded. The
// caller holds mu.
func (t *Transfer) cell(kind wire.Kind) *kindStats {
	if int(kind) >= len(t.cells) || t.cells[kind].msgs == 0 {
		return nil
	}
	return &t.cells[kind]
}

// TotalBytes returns all bytes recorded so far.
func (t *Transfer) TotalBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// KindBytes returns bytes and message count for one kind.
func (t *Transfer) KindBytes(kind wire.Kind) (bytes, msgs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ks := t.cell(kind); ks != nil {
		return ks.bytes, ks.msgs
	}
	return 0, 0
}

// KindWindow returns the first/last record timestamps for one kind; ok is
// false when the kind has never been recorded.
func (t *Transfer) KindWindow(kind wire.Kind) (first, last time.Time, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.cell(kind)
	if ks == nil {
		return time.Time{}, time.Time{}, false
	}
	return ks.first, ks.last, true
}

// KindThroughput returns one kind's mean throughput in bytes/sec over its
// observed [first, last] window. A kind seen fewer than twice (or whose
// records all share one timestamp) has no measurable window and returns 0.
func (t *Transfer) KindThroughput(kind wire.Kind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cell(kind).throughput()
}

func (ks *kindStats) throughput() float64 {
	if ks == nil {
		return 0
	}
	window := ks.last.Sub(ks.first)
	if window <= 0 {
		return 0
	}
	return float64(ks.bytes) / window.Seconds()
}

// WritePrometheus writes per-kind transfer counters and throughput gauges in
// the Prometheus text format, sorted by kind number for deterministic output.
// name maps a wire kind to its registered label (use msg.Registry().Name).
func (t *Transfer) WritePrometheus(w io.Writer, name func(wire.Kind) string) {
	type row struct {
		label       string
		bytes, msgs int64
		bytesPerSec float64
	}
	t.mu.Lock()
	var rows []row
	for k := range t.cells {
		if ks := &t.cells[k]; ks.msgs > 0 {
			rows = append(rows, row{label: name(wire.Kind(k)), bytes: ks.bytes, msgs: ks.msgs, bytesPerSec: ks.throughput()})
		}
	}
	t.mu.Unlock()

	fmt.Fprintf(w, "# HELP specsync_transfer_bytes_total Wire bytes sent, by message kind.\n")
	fmt.Fprintf(w, "# TYPE specsync_transfer_bytes_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "specsync_transfer_bytes_total{kind=%q} %d\n", r.label, r.bytes)
	}
	fmt.Fprintf(w, "# HELP specsync_transfer_msgs_total Messages sent, by message kind.\n")
	fmt.Fprintf(w, "# TYPE specsync_transfer_msgs_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "specsync_transfer_msgs_total{kind=%q} %d\n", r.label, r.msgs)
	}
	fmt.Fprintf(w, "# HELP specsync_transfer_bytes_per_sec Mean throughput over each kind's observed window.\n")
	fmt.Fprintf(w, "# TYPE specsync_transfer_bytes_per_sec gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "specsync_transfer_bytes_per_sec{kind=%q} %g\n", r.label, r.bytesPerSec)
	}
}

// Split returns (dataBytes, controlBytes) according to the classifier.
func (t *Transfer) Split() (dataBytes, controlBytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.cells {
		if t.classOf != nil && t.classOf(wire.Kind(k)) {
			controlBytes += t.cells[k].bytes
		} else {
			dataBytes += t.cells[k].bytes
		}
	}
	return dataBytes, controlBytes
}

// Breakdown returns a copy of per-kind stats keyed by kind.
func (t *Transfer) Breakdown() map[wire.Kind]struct{ Bytes, Msgs int64 } {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[wire.Kind]struct{ Bytes, Msgs int64 })
	for k, ks := range t.cells {
		if ks.msgs > 0 {
			out[wire.Kind(k)] = struct{ Bytes, Msgs int64 }{Bytes: ks.bytes, Msgs: ks.msgs}
		}
	}
	return out
}

// HumanBytes renders a byte count with a binary-prefix unit.
func HumanBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
