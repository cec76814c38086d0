package obs_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"specsync/internal/obs"
)

// feedSpans pushes one span observation per worker per round: every worker
// runs at baseSpan except the ones in slow, which run at slowSpan.
func feedSpans(d *obs.StragglerDetector, workers, rounds int, slow map[int]bool, baseSpan, slowSpan float64) time.Time {
	at := time.Unix(0, 0)
	for r := 0; r < rounds; r++ {
		at = at.Add(time.Second)
		for w := 0; w < workers; w++ {
			span := baseSpan
			if slow[w] {
				span = slowSpan
			}
			d.ObserveSpan(w, at, span)
		}
	}
	return at
}

func TestStragglerDetectorFlagsSlowWorker(t *testing.T) {
	o := obs.New(obs.Options{})
	d := o.Stragglers()
	feedSpans(d, 4, 10, map[int]bool{3: true}, 1.0, 2.5)

	snap, ok := d.Snapshot()
	if !ok {
		t.Fatal("no snapshot after observations")
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("got %d workers, want 4", len(snap.Workers))
	}
	for _, w := range snap.Workers {
		if w.Worker == 3 {
			if w.State != "sustained" {
				t.Errorf("worker 3: state %q, want sustained (score %.2f)", w.State, w.Score)
			}
			if w.Score < 2 {
				t.Errorf("worker 3: score %.2f, want >= 2", w.Score)
			}
		} else if w.State != "ok" {
			t.Errorf("worker %d: state %q, want ok (score %.2f)", w.Worker, w.State, w.Score)
		}
	}
	if snap.Flagged != 1 || snap.Sustained != 1 {
		t.Errorf("flagged=%d sustained=%d, want 1/1", snap.Flagged, snap.Sustained)
	}

	// The detector's flags also decorate /clusterz worker rows.
	score, level, ok := d.Flag(3)
	if !ok || level != obs.StragglerSustained || score < 2 {
		t.Errorf("Flag(3) = (%.2f, %v, %v), want sustained with score >= 2", score, level, ok)
	}
}

func TestStragglerHysteresisTransientThenClear(t *testing.T) {
	o := obs.New(obs.Options{})
	d := o.Stragglers()
	// Warm everyone up at the same pace: no flags.
	at := feedSpans(d, 4, 5, nil, 1.0, 0)
	if snap, _ := d.Snapshot(); snap.Flagged != 0 {
		t.Fatalf("flagged %d workers during homogeneous warmup", snap.Flagged)
	}

	// One slow evaluation flags worker 2 transient (not yet sustained).
	at = at.Add(time.Second)
	d.ObserveSpan(2, at, 3.0)
	if _, level, _ := d.Flag(2); level != obs.StragglerTransient {
		t.Fatalf("after one slow sample: level %v, want transient", level)
	}

	// Recovering for ClearAfter (default 2) evaluations clears the flag.
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		d.ObserveSpan(2, at, 1.0)
	}
	if _, level, _ := d.Flag(2); level != obs.StragglerOK {
		t.Fatalf("after recovery: level %v, want ok", level)
	}

	// A sustained slowdown (SustainAfter = 4 consecutive) escalates.
	for i := 0; i < 4; i++ {
		at = at.Add(time.Second)
		d.ObserveSpan(2, at, 3.0)
	}
	if _, level, _ := d.Flag(2); level != obs.StragglerSustained {
		t.Fatalf("after 4 slow samples: level %v, want sustained", level)
	}
}

// TestStragglerSnapshotDeterministic: identical observation sequences must
// render byte-identical snapshots (the DES determinism invariant).
func TestStragglerSnapshotDeterministic(t *testing.T) {
	render := func() []byte {
		o := obs.New(obs.Options{})
		feedSpans(o.Stragglers(), 4, 12, map[int]bool{1: true}, 1.0, 2.0)
		snap, _ := o.StragglerSnapshot()
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := render(), render()
	if string(a) != string(b) {
		t.Fatalf("same feed produced different snapshots:\n%s\n%s", a, b)
	}
}

// TestStragglerConcurrency hammers the detector from multiple goroutines so
// `go test -race` proves the locking.
func TestStragglerConcurrency(t *testing.T) {
	o := obs.New(obs.Options{})
	d := o.Stragglers()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			at := time.Unix(int64(g), 0)
			for i := 0; i < 200; i++ {
				at = at.Add(time.Second)
				d.ObserveSpan(i%4, at, 1.0+float64(g))
				d.ObservePhase(i%4, obs.PhasePush, at, 0.1)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			d.Snapshot()
			d.Flag(i % 4)
		}
	}()
	wg.Wait()
	if _, ok := d.Snapshot(); !ok {
		t.Fatal("no snapshot after concurrent feeding")
	}
}
