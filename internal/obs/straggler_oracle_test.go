package obs_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"specsync/internal/obs"
	"specsync/internal/trace"
)

// stragglerModel is the detector's scoring rule written the slow, obvious
// way: every observation recomputes the median from scratch by
// collecting and sorting the scored workers' spans. The detector keeps that
// population sorted incrementally; the oracle test below holds the two to the
// same scores, levels, transitions and counts.
type stragglerModel struct {
	opts    obs.StragglerOptions
	workers map[int]*modelWorker
	events  []trace.Event
}

type modelWorker struct {
	span        float64
	samples     int
	score       float64
	over, under int
	level       obs.StragglerLevel
}

func (m *stragglerModel) worker(index int) *modelWorker {
	w := m.workers[index]
	if w == nil {
		w = &modelWorker{}
		m.workers[index] = w
	}
	return w
}

func (m *stragglerModel) transition(index int, w *modelWorker, next obs.StragglerLevel, at time.Time) {
	w.level = next
	kind := trace.KindStragglerFlag
	if next == obs.StragglerOK {
		kind = trace.KindStragglerClear
	}
	m.events = append(m.events, trace.Event{At: at, Worker: index, Kind: kind, Value: int64(next)})
}

func (m *stragglerModel) observe(index int, at time.Time, span float64) {
	w := m.worker(index)
	w.span = span
	w.samples++
	if w.samples < m.opts.MinSamples {
		return
	}
	var eligible []float64
	for _, p := range m.workers {
		if p.samples >= m.opts.MinSamples {
			eligible = append(eligible, p.span)
		}
	}
	if len(eligible) < 2 {
		w.score = 1
		return
	}
	sort.Float64s(eligible)
	var median float64
	if n := len(eligible); n%2 == 1 {
		median = eligible[n/2]
	} else {
		median = (eligible[n/2-1] + eligible[n/2]) / 2
	}
	w.score = w.span / median
	if w.score >= m.opts.SlowFactor {
		w.over++
		w.under = 0
	} else {
		w.under++
		if w.under >= m.opts.ClearAfter {
			w.over = 0
		}
	}
	next := w.level
	switch {
	case w.over >= m.opts.SustainAfter:
		next = obs.StragglerSustained
	case w.over >= 1:
		if w.level < obs.StragglerTransient {
			next = obs.StragglerTransient
		}
	case w.under >= m.opts.ClearAfter:
		next = obs.StragglerOK
	}
	if next != w.level {
		m.transition(index, w, next, at)
	}
}

func (m *stragglerModel) markSustained(index int, at time.Time, score float64) {
	w := m.worker(index)
	if score > w.score {
		w.score = score
	}
	w.over, w.under = m.opts.SustainAfter, 0
	if w.level != obs.StragglerSustained {
		m.transition(index, w, obs.StragglerSustained, at)
	}
}

func (m *stragglerModel) counts() (flagged, sustained int, median, max float64) {
	var scores []float64
	for _, w := range m.workers {
		if w.samples < m.opts.MinSamples {
			continue
		}
		scores = append(scores, w.score)
		if w.level > obs.StragglerOK {
			flagged++
		}
		if w.level == obs.StragglerSustained {
			sustained++
		}
	}
	sort.Float64s(scores)
	if n := len(scores); n > 0 {
		median, max = scores[n/2], scores[n-1]
	}
	return flagged, sustained, median, max
}

// TestStragglerDetectorMatchesRecompute replays random ObserveSpan /
// MarkSustained streams — workers arriving over time, so the
// scored population grows across MinSamples mid-stream, and spans drawn from
// a small set, so the sorted population is full of ties — into the detector
// and the from-scratch model.
func TestStragglerDetectorMatchesRecompute(t *testing.T) {
	const cases = 1000
	transitions := 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := obs.StragglerOptions{
			Alpha: 0.3, SlowFactor: 1.5,
			SustainAfter: 1 + rng.Intn(5), ClearAfter: 1 + rng.Intn(3), MinSamples: 1 + rng.Intn(4),
		}
		o := obs.New(obs.Options{Stragglers: opts})
		var got trace.Collector
		o.SetTracer(&got)
		d := o.Stragglers()
		model := &stragglerModel{opts: opts, workers: make(map[int]*modelWorker)}

		fleet := 2 + rng.Intn(40)
		spans := []float64{0.5, 1, 1, 1, 1.25, 1.5, 2, 4}
		at := time.Unix(1_700_000_000, 0)
		for op := 0; op < 400; op++ {
			at = at.Add(time.Duration(rng.Intn(50)) * time.Millisecond)
			// The reachable fleet widens as the stream goes on.
			w := rng.Intn(1 + fleet*(op+40)/440)
			if rng.Intn(40) == 0 {
				score := 1 + 4*rng.Float64()
				d.MarkSustained(w, at, score)
				model.markSustained(w, at, score)
			} else {
				span := spans[rng.Intn(len(spans))]
				if rng.Intn(4) == 0 {
					span *= 1 + rng.Float64()
				}
				d.ObserveSpan(w, at, span)
				model.observe(w, at, span)
			}

			mw := model.workers[w]
			score, level, ok := d.Flag(w)
			if wantOK := mw.samples >= opts.MinSamples; ok != wantOK || (ok && (score != mw.score || level != mw.level)) {
				t.Fatalf("seed %d op %d: Flag(%d) = (%v, %v, %v), model (%v, %v, %v)",
					seed, op, w, score, level, ok, mw.score, mw.level, wantOK)
			}
			f, s, med, max := d.Counts()
			wf, ws, wmed, wmax := model.counts()
			if f != wf || s != ws || med != wmed || max != wmax {
				t.Fatalf("seed %d op %d: Counts() = (%d, %d, %v, %v), model (%d, %d, %v, %v)",
					seed, op, f, s, med, max, wf, ws, wmed, wmax)
			}
		}
		if !reflect.DeepEqual(got.Events(), model.events) {
			t.Fatalf("seed %d: transition sequence differs:\n got  %v\n want %v", seed, got.Events(), model.events)
		}
		transitions += len(model.events)
	}
	if transitions < cases {
		t.Errorf("only %d transitions over %d cases; the generator no longer exercises the state machine", transitions, cases)
	}
}

// TestObserveSpanDoesNotAllocate pins the detector's steady-state cost at
// fleet scale: once every worker is scored, an observation that changes no
// flag re-sorts in place and allocates nothing.
func TestObserveSpanDoesNotAllocate(t *testing.T) {
	const m = 512
	d := obs.New(obs.Options{}).Stragglers()
	rng := rand.New(rand.NewSource(1))
	at := time.Unix(1_700_000_000, 0)
	observe := func() {
		at = at.Add(time.Millisecond)
		d.ObserveSpan(rng.Intn(m), at, 0.9+0.2*rng.Float64())
	}
	for round := 0; round < 4; round++ {
		for w := 0; w < m; w++ {
			at = at.Add(time.Millisecond)
			d.ObserveSpan(w, at, 1)
		}
	}
	if allocs := testing.AllocsPerRun(2000, observe); allocs != 0 {
		t.Errorf("ObserveSpan allocates %v times per call at m = %d", allocs, m)
	}
}
