package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"specsync/internal/trace"
)

// StragglerLevel classifies one worker's slowdown state following the Wong
// straggler taxonomy: a transient flag (GC pause, disk hiccup) clears on its
// own, a sustained flag (degraded host, congested link) persists and is the
// signal mitigation should act on.
type StragglerLevel int

// Straggler levels, ordered by severity.
const (
	StragglerOK StragglerLevel = iota
	StragglerTransient
	StragglerSustained
)

func (l StragglerLevel) String() string {
	switch l {
	case StragglerTransient:
		return "transient"
	case StragglerSustained:
		return "sustained"
	default:
		return "ok"
	}
}

// StragglerOptions tunes the detector. Zero values select the defaults.
type StragglerOptions struct {
	// Alpha is the EWMA weight for phase-duration and push-rate samples.
	// Default 0.3 (matches the scheduler's span alpha).
	Alpha float64
	// SlowFactor flags a worker whose span estimate exceeds this multiple of
	// the fleet median. Default 1.5.
	SlowFactor float64
	// SustainAfter promotes a transient flag to sustained after this many
	// consecutive over-threshold evaluations. Default 4.
	SustainAfter int
	// ClearAfter clears a flag after this many consecutive below-threshold
	// evaluations. Default 2.
	ClearAfter int
	// MinSamples is the number of span observations a worker needs before it
	// is scored (and before it contributes to the fleet median). Default 3.
	MinSamples int
}

func (o StragglerOptions) withDefaults() StragglerOptions {
	if o.Alpha <= 0 || o.Alpha > 1 {
		o.Alpha = 0.3
	}
	if o.SlowFactor <= 1 {
		o.SlowFactor = 1.5
	}
	if o.SustainAfter <= 0 {
		o.SustainAfter = 4
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 2
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 3
	}
	return o
}

// StragglerState is one worker's row in a StragglerSnapshot.
type StragglerState struct {
	Worker          int     `json:"worker"`
	State           string  `json:"state"` // "ok" | "transient" | "sustained"
	Score           float64 `json:"score"` // span / fleet median (1.0 = median pace)
	IterSpanSeconds float64 `json:"iter_span_seconds"`
	PushRate        float64 `json:"push_rate"` // pushes/sec EWMA from notify intervals
	PullSeconds     float64 `json:"pull_seconds"`
	ComputeSeconds  float64 `json:"compute_seconds"`
	PushSeconds     float64 `json:"push_seconds"`
	Samples         int     `json:"samples"`
	// EverSustained reports the worker reached the sustained level at any
	// point (the detection signal scored against injected ground truth);
	// Injected marks workers a straggler plan actually slowed (SetTruth).
	EverSustained bool `json:"ever_sustained,omitempty"`
	Injected      bool `json:"injected,omitempty"`
}

// StragglerSnapshot is the /stragglerz payload: every scored worker sorted
// by index, stamped with the detector's last observation time (so
// same-seed DES runs export byte-identical snapshots).
type StragglerSnapshot struct {
	At         time.Time        `json:"at"`
	SlowFactor float64          `json:"slow_factor"`
	Flagged    int              `json:"flagged"` // transient + sustained
	Sustained  int              `json:"sustained"`
	Workers    []StragglerState `json:"workers"`
	// Detector-validation fields, populated when a straggler plan has
	// registered its ground truth (SetTruth): the injected worker set and
	// the precision/recall of the ever-sustained flag against it.
	Truth     []int   `json:"truth,omitempty"`
	Precision float64 `json:"precision,omitempty"`
	Recall    float64 `json:"recall,omitempty"`
}

// stragglerWorker is the detector's per-worker state. Guarded by the
// detector mutex.
type stragglerWorker struct {
	index   int
	span    float64 // scheduler's notify-interval EWMA, the scoring signal
	samples int
	lastAt  time.Time
	rate    float64    // pushes/sec EWMA derived from notify intervals
	phase   [3]float64 // pull/compute/push EWMAs (diagnostic detail)
	phaseN  [3]int
	score   float64
	over    int // consecutive over-threshold evaluations
	under   int // consecutive below-threshold evaluations
	level   StragglerLevel
	// everSustained latches: once a worker has been held (or forced) at
	// sustained level it counts as detected for the rest of the run, even
	// after mitigation masks the signal and the flag clears.
	everSustained bool

	scoreG *Gauge
	stateG *Gauge
	flags  *Counter
}

// StragglerDetector scores each worker's iteration span against the fleet
// median and flags outliers with hysteresis. The scoring signal is the
// scheduler's per-worker notify-interval EWMA (available in both the DES and
// live stacks); worker-side phase durations and push rate ride along as
// diagnostic detail. All state transitions export gauges, trace events, and
// flight-recorder entries. Methods are nil-safe and evaluation is pure
// bookkeeping — no messages, no timers — so detection is deterministic under
// the simulator.
type StragglerDetector struct {
	mu     sync.Mutex
	opts   StragglerOptions
	reg    *Registry
	spans  *SpanLog
	flight *FlightRecorder
	tracer trace.Tracer
	lastAt time.Time

	workers map[int]*stragglerWorker
	// scored is the scored population — the span estimate of every worker
	// with at least MinSamples observations — kept ascending by ObserveSpan,
	// so the fleet median is read off its middle.
	scored []float64
	// The population gauges are registered on first use (see initLocked).
	flaggedG   *Gauge
	sustainedG *Gauge
	// truth is the injected-straggler ground truth a plan registered (nil =
	// no plan; detector validation off).
	truth []int
}

func newStragglerDetector(opts StragglerOptions, reg *Registry, spans *SpanLog, flight *FlightRecorder) *StragglerDetector {
	return &StragglerDetector{
		opts:    opts.withDefaults(),
		reg:     reg,
		spans:   spans,
		flight:  flight,
		workers: make(map[int]*stragglerWorker),
	}
}

// setTracer routes flag/clear transitions into a trace collector.
func (d *StragglerDetector) setTracer(t trace.Tracer) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.tracer = t
	d.mu.Unlock()
}

// initLocked registers the population gauges the first time the detector
// hears of a worker or a plan, so a run that feeds it nothing exports none.
func (d *StragglerDetector) initLocked() {
	if d.flaggedG != nil {
		return
	}
	d.flaggedG = d.reg.Gauge("specsync_stragglers_flagged",
		"Workers currently flagged as stragglers (transient or sustained).")
	d.sustainedG = d.reg.Gauge("specsync_stragglers_sustained",
		"Workers currently flagged as sustained stragglers.")
}

func (d *StragglerDetector) workerLocked(index int) *stragglerWorker {
	d.initLocked()
	w, ok := d.workers[index]
	if !ok {
		idx := itoa(index)
		w = &stragglerWorker{
			index: index,
			scoreG: d.reg.Gauge("specsync_straggler_score",
				"Slowdown score: worker span EWMA over the fleet median (1.0 = median pace).", "worker", idx),
			stateG: d.reg.Gauge("specsync_straggler_state",
				"Straggler flag level: 0 ok, 1 transient, 2 sustained.", "worker", idx),
			flags: d.reg.Counter("specsync_straggler_flags_total",
				"Times this worker entered a flagged state from ok.", "worker", idx),
		}
		d.workers[index] = w
	}
	return w
}

// ObserveSpan feeds one worker's current iteration-span estimate (the
// scheduler's notify-interval EWMA) and re-scores that worker against the
// fleet median.
func (d *StragglerDetector) ObserveSpan(worker int, at time.Time, spanSeconds float64) {
	if d == nil || !(spanSeconds > 0) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workerLocked(worker)
	if !w.lastAt.IsZero() {
		if dt := at.Sub(w.lastAt).Seconds(); dt > 0 {
			inst := 1 / dt
			if w.rate == 0 {
				w.rate = inst
			} else {
				w.rate = (1-d.opts.Alpha)*w.rate + d.opts.Alpha*inst
			}
		}
	}
	switch {
	case w.samples >= d.opts.MinSamples:
		moveSorted(d.scored, w.span, spanSeconds)
	case w.samples+1 == d.opts.MinSamples:
		d.scored = insertSorted(d.scored, spanSeconds)
	}
	w.span = spanSeconds
	w.samples++
	w.lastAt = at
	d.lastAt = at
	d.scoreLocked(w, at)
}

// Phase indices for ObservePhase.
const (
	PhasePull = iota
	PhaseCompute
	PhasePush
)

// ObservePhase feeds one completed pull/compute/push duration from the
// worker lifecycle hooks. Phases refine the snapshot's per-phase EWMAs; they
// do not trigger scoring (the scheduler span feed does).
func (d *StragglerDetector) ObservePhase(worker int, phase int, at time.Time, seconds float64) {
	if d == nil || phase < 0 || phase > PhasePush || seconds < 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workerLocked(worker)
	if w.phaseN[phase] == 0 {
		w.phase[phase] = seconds
	} else {
		w.phase[phase] = (1-d.opts.Alpha)*w.phase[phase] + d.opts.Alpha*seconds
	}
	w.phaseN[phase]++
	if at.After(d.lastAt) {
		d.lastAt = at
	}
}

// scoreLocked recomputes w's slowdown score against the median span and
// walks the hysteresis state machine.
func (d *StragglerDetector) scoreLocked(w *stragglerWorker, at time.Time) {
	if w.samples < d.opts.MinSamples {
		return
	}
	eligible := d.scored
	if len(eligible) < 2 {
		w.score = 1
		w.scoreG.Set(1)
		return
	}
	var median float64
	if n := len(eligible); n%2 == 1 {
		median = eligible[n/2]
	} else {
		median = (eligible[n/2-1] + eligible[n/2]) / 2
	}
	if median <= 0 {
		return
	}
	w.score = w.span / median
	w.scoreG.Set(w.score)

	if w.score >= d.opts.SlowFactor {
		w.over++
		w.under = 0
	} else {
		w.under++
		if w.under >= d.opts.ClearAfter {
			w.over = 0
		}
	}
	next := w.level
	switch {
	case w.over >= d.opts.SustainAfter:
		next = StragglerSustained
	case w.over >= 1:
		if w.level < StragglerTransient {
			next = StragglerTransient
		}
	case w.under >= d.opts.ClearAfter:
		next = StragglerOK
	}
	if next != w.level {
		d.transitionLocked(w, next, at)
	}
}

// transitionLocked applies a level change and exports it everywhere: state
// gauge, flag counter, population gauges, trace event, span marker, and the
// flight recorder.
func (d *StragglerDetector) transitionLocked(w *stragglerWorker, next StragglerLevel, at time.Time) {
	prev := w.level
	w.level = next
	if next == StragglerSustained {
		w.everSustained = true
	}
	w.stateG.Set(float64(next))
	if prev == StragglerOK && next > StragglerOK {
		w.flags.Inc()
	}
	var flagged, sustained int
	for _, p := range d.workers {
		if p.level > StragglerOK {
			flagged++
		}
		if p.level == StragglerSustained {
			sustained++
		}
	}
	d.flaggedG.Set(float64(flagged))
	d.sustainedG.Set(float64(sustained))

	kind := trace.KindStragglerFlag
	name := "straggler flag"
	fkind := "straggler-flag"
	if next == StragglerOK {
		kind = trace.KindStragglerClear
		name = "straggler clear"
		fkind = "straggler-clear"
	}
	node := "worker/" + itoa(w.index)
	if d.tracer != nil {
		d.tracer.Record(trace.Event{At: at, Worker: w.index, Kind: kind, Value: int64(next)})
	}
	d.spans.Add(Span{Node: node, Name: name, Start: at, Value: int64(next)})
	d.flight.Record(FlightEvent{
		At: at, Kind: fkind, Node: node,
		Value:  w.score,
		Detail: fmt.Sprintf("%s -> %s (score %.2f)", prev, next, w.score),
	})
}

// MarkSustained force-flags a worker at sustained level. The scheduler's
// mitigation loop uses it for overdue workers: a paused worker emits no
// notify spans at all, so the span-scoring path is blind to exactly the
// straggler that hurts most — the silence itself is the signal. The forced
// flag walks the normal transition path (gauges, trace, flight recorder) and
// clears through the normal hysteresis once spans resume.
func (d *StragglerDetector) MarkSustained(worker int, at time.Time, score float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workerLocked(worker)
	if score > w.score {
		w.score = score
		w.scoreG.Set(w.score)
	}
	w.over = d.opts.SustainAfter
	w.under = 0
	if at.After(d.lastAt) {
		d.lastAt = at
	}
	if w.level != StragglerSustained {
		d.transitionLocked(w, StragglerSustained, at)
	}
}

// SetTruth registers a straggler plan's ground truth: the worker indices the
// plan actually slows. Snapshot then scores the detector's
// ever-sustained flags against it (precision/recall on /stragglerz).
func (d *StragglerDetector) SetTruth(workers []int) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.initLocked()
	d.truth = append([]int(nil), workers...)
	sort.Ints(d.truth)
}

// EverSustained returns the sorted worker indices that were ever held at
// sustained level — the detected set the run result scores against the
// plan's ground truth.
func (d *StragglerDetector) EverSustained() []int {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for i, w := range d.workers {
		if w.everSustained {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// insertSorted adds v to ascending xs.
func insertSorted(xs []float64, v float64) []float64 {
	return slices.Insert(xs, sort.SearchFloat64s(xs, v), v)
}

// moveSorted replaces one occurrence of old in ascending xs with v, shifting
// only the entries between the two positions.
func moveSorted(xs []float64, old, v float64) {
	from := sort.SearchFloat64s(xs, old)
	if v >= old {
		to := from + sort.SearchFloat64s(xs[from+1:], v)
		copy(xs[from:to], xs[from+1:to+1])
		xs[to] = v
	} else {
		to := sort.SearchFloat64s(xs[:from], v)
		copy(xs[to+1:from+1], xs[to:from])
		xs[to] = v
	}
}

// decorate fills the straggler score and flag level into the /clusterz
// worker rows (rows of workers not yet scored are left alone).
func (d *StragglerDetector) decorate(rows []WorkerState) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range rows {
		if w, ok := d.workers[rows[i].Index]; ok && w.samples >= d.opts.MinSamples {
			rows[i].StragglerScore = w.score
			rows[i].Straggler = w.level.String()
		}
	}
}

// Flag returns the current score and level for one worker (ok=false when the
// worker has never been scored).
func (d *StragglerDetector) Flag(worker int) (score float64, level StragglerLevel, ok bool) {
	if d == nil {
		return 0, StragglerOK, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w, wok := d.workers[worker]
	if !wok || w.samples < d.opts.MinSamples {
		return 0, StragglerOK, false
	}
	return w.score, w.level, true
}

// Counts returns the flagged/sustained straggler counts and the fleet
// median and maximum slowdown scores. It is the meta-scheme policy's input:
// pure bookkeeping under the detector lock, no messages or timers, so reading
// it from the scheduler's execution context stays deterministic under the
// DES. The maximum matters because mitigation masks its own signal: once the
// fleet runs SSP a genuine straggler stops contending with the healthy
// majority and its score can settle just under the flag threshold, so the
// policy's recover condition needs the raw worst score, not just the flags.
func (d *StragglerDetector) Counts() (flagged, sustained int, median, max float64) {
	if d == nil {
		return 0, 0, 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	scores := make([]float64, 0, len(d.workers))
	for _, w := range d.workers {
		if w.samples < d.opts.MinSamples {
			continue
		}
		scores = append(scores, w.score)
		if w.level > StragglerOK {
			flagged++
		}
		if w.level == StragglerSustained {
			sustained++
		}
	}
	sort.Float64s(scores)
	if n := len(scores); n > 0 {
		median = scores[n/2]
		max = scores[n-1]
	}
	return flagged, sustained, median, max
}

// Snapshot renders the detector state for /stragglerz, sorted by worker
// index. ok is false until at least one span has been observed.
func (d *StragglerDetector) Snapshot() (StragglerSnapshot, bool) {
	if d == nil {
		return StragglerSnapshot{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := StragglerSnapshot{At: d.lastAt, SlowFactor: d.opts.SlowFactor}
	idxs := make([]int, 0, len(d.workers))
	for i := range d.workers {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	injected := make(map[int]bool, len(d.truth))
	for _, t := range d.truth {
		injected[t] = true
	}
	for _, i := range idxs {
		w := d.workers[i]
		snap.Workers = append(snap.Workers, StragglerState{
			Worker:          i,
			State:           w.level.String(),
			Score:           w.score,
			IterSpanSeconds: w.span,
			PushRate:        w.rate,
			PullSeconds:     w.phase[PhasePull],
			ComputeSeconds:  w.phase[PhaseCompute],
			PushSeconds:     w.phase[PhasePush],
			Samples:         w.samples,
			EverSustained:   w.everSustained,
			Injected:        injected[i],
		})
		if w.level > StragglerOK {
			snap.Flagged++
		}
		if w.level == StragglerSustained {
			snap.Sustained++
		}
	}
	if d.truth != nil {
		snap.Truth = append(snap.Truth, d.truth...)
		var tp, fp int
		for i, w := range d.workers {
			if !w.everSustained {
				continue
			}
			if injected[i] {
				tp++
			} else {
				fp++
			}
		}
		if tp+fp > 0 {
			snap.Precision = float64(tp) / float64(tp+fp)
		} else {
			snap.Precision = 1
		}
		if len(d.truth) > 0 {
			snap.Recall = float64(tp) / float64(len(d.truth))
		} else {
			snap.Recall = 1
		}
	}
	return snap, len(snap.Workers) > 0
}

func itoa(i int) string { return strconv.Itoa(i) }
