package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the fixed histogram bounds (seconds) used for the
// pull / compute / push / abort-to-restart latency histograms. They span
// sub-millisecond RPCs up to the ImageNet-profile ~70 s iterations.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250,
}

// StalenessBuckets are the fixed bounds for per-push staleness (a count of
// peer updates, not a duration).
var StalenessBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Counter is a monotonically increasing int64. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so instrumentation
// call sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down. Safe for concurrent use and
// nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts: one
// count per upper bound plus an overflow (+Inf) bucket. Observe is lock-free;
// Snapshot gives a consistent-enough copy for exposition (bucket counts and
// sum are read without a global lock, matching Prometheus client semantics).
// The total count is the sum of the bucket counts, so an observation costs
// two atomic writes, not three. Nil-safe like Counter.
type Histogram struct {
	bounds  []float64 // ascending upper bounds (le semantics)
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly ascending at %d (%v <= %v)",
				i, bounds[i], bounds[i-1])
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}, nil
}

// Observe records one value into the first bucket whose bound is >= v
// (the overflow bucket if none).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Snapshot returns a copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram. Counts has one entry
// per bound plus a trailing overflow (+Inf) bucket.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Merge combines two snapshots with identical bounds (e.g. the same latency
// histogram from several node processes).
func (s HistSnapshot) Merge(o HistSnapshot) (HistSnapshot, error) {
	if len(s.Bounds) == 0 {
		return o, nil
	}
	if len(o.Bounds) == 0 {
		return s, nil
	}
	if len(s.Bounds) != len(o.Bounds) {
		return HistSnapshot{}, fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return HistSnapshot{}, fmt.Errorf("obs: merging histograms with different bounds at %d (%v vs %v)",
				i, s.Bounds[i], o.Bounds[i])
		}
	}
	out := HistSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Sum:    s.Sum + o.Sum,
		Count:  s.Count + o.Count,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out, nil
}

// Quantile returns an upper-bound estimate of the q-quantile (0..1): the
// bound of the bucket containing the target rank (+Inf maps to the largest
// finite bound). NaN for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] // overflow bucket
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the arithmetic mean of observed values (NaN if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return "untyped"
	}
}

// family groups all label variants of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64      // histogram families only
	series map[string]any // rendered label string -> *Counter/*Gauge/*Histogram
}

// Registry is a concurrency-safe metrics registry with Prometheus text
// exposition. Instruments are get-or-create: asking for the same
// (name, labels) twice returns the same instrument, so restarted node
// incarnations keep accumulating into the same series.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors map[string]func(io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families:   make(map[string]*family),
		collectors: make(map[string]func(io.Writer)),
	}
}

// labelString renders label pairs (k1, v1, k2, v2, ...) in the given order.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) get(name, help string, kind metricKind, bounds []float64, labels []string) any {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]any)}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	m, ok := fam.series[ls]
	if !ok {
		switch kind {
		case counterKind:
			m = &Counter{}
		case gaugeKind:
			m = &Gauge{}
		case histogramKind:
			h, err := NewHistogram(fam.bounds)
			if err != nil {
				panic(fmt.Sprintf("obs: metric %q: %v", name, err))
			}
			m = h
		}
		fam.series[ls] = m
	}
	return m
}

// Counter returns the counter for (name, labels), creating it if needed.
// Labels are key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, counterKind, nil, labels).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, gaugeKind, nil, labels).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket bounds if needed (bounds of an existing family win).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, histogramKind, bounds, labels).(*Histogram)
}

// SumCounters sums every label variant of a counter family (0 if absent).
func (r *Registry) SumCounters(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok || fam.kind != counterKind {
		return 0
	}
	var sum int64
	for _, m := range fam.series {
		sum += m.(*Counter).Value()
	}
	return sum
}

// SetCollector registers (or replaces) an external exposition source under a
// key; its output is appended after the registry's own families, in key
// order. Sources write Prometheus text themselves (e.g. metrics.Transfer).
func (r *Registry) SetCollector(key string, fn func(io.Writer)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors[key] = fn
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

// withLE merges an le label into an already-rendered label string.
func withLE(ls, le string) string {
	if ls == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`%s,le=%q}`, ls[:len(ls)-1], le)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (sorted by family name, then label string, so output order is
// deterministic), followed by registered collectors in key order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	keys := make([]string, 0, len(r.collectors))
	for k := range r.collectors {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, n := range names {
		fam := r.families[n]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		lss := make([]string, 0, len(fam.series))
		for ls := range fam.series {
			lss = append(lss, ls)
		}
		sort.Strings(lss)
		for _, ls := range lss {
			switch m := fam.series[ls].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", fam.name, ls, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", fam.name, ls, formatFloat(m.Value()))
			case *Histogram:
				s := m.Snapshot()
				var cum int64
				for i, b := range s.Bounds {
					cum += s.Counts[i]
					fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, withLE(ls, formatFloat(b)), cum)
				}
				cum += s.Counts[len(s.Counts)-1]
				fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name, withLE(ls, "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, ls, formatFloat(s.Sum))
				fmt.Fprintf(w, "%s_count%s %d\n", fam.name, ls, s.Count)
			}
		}
	}
	collect := make([]func(io.Writer), 0, len(keys))
	for _, k := range keys {
		collect = append(collect, r.collectors[k])
	}
	r.mu.Unlock()
	// Collectors run outside the registry lock: they take their own locks
	// (e.g. metrics.Transfer) and must not deadlock against re-entrant
	// registry use.
	for _, fn := range collect {
		fn(w)
	}
}
