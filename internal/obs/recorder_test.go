package obs_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"specsync/internal/obs"
)

func TestFlightRecorderRingSemantics(t *testing.T) {
	r := obs.NewFlightRecorder(4)
	at := time.Unix(0, 0)
	for i := 0; i < 6; i++ {
		r.Record(obs.FlightEvent{At: at.Add(time.Duration(i) * time.Second), Kind: "tick", Iter: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Recorded() != 6 {
		t.Fatalf("Recorded = %d, want 6", r.Recorded())
	}
	d := r.Dump()
	if d.Capacity != 4 || d.Dropped != 2 || len(d.Events) != 4 {
		t.Fatalf("dump = cap %d dropped %d events %d, want 4/2/4", d.Capacity, d.Dropped, len(d.Events))
	}
	// Oldest-first, the two earliest overwritten, Seq monotonic.
	for i, ev := range d.Events {
		wantIter := int64(i + 2)
		if ev.Iter != wantIter || ev.Seq != uint64(wantIter+1) {
			t.Errorf("event %d: iter %d seq %d, want iter %d seq %d", i, ev.Iter, ev.Seq, wantIter, wantIter+1)
		}
	}
}

func TestFlightDumpJSONRoundTrip(t *testing.T) {
	r := obs.NewFlightRecorder(8)
	r.Record(obs.FlightEvent{
		At: time.Unix(42, 0).UTC(), Kind: "barrier-release", Node: "scheduler",
		Iter: 7, Value: 4, Detail: "round 7",
	})
	data, err := json.Marshal(r.Dump())
	if err != nil {
		t.Fatal(err)
	}
	var back obs.FlightDump
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != 1 {
		t.Fatalf("round-trip lost events: %d", len(back.Events))
	}
	ev := back.Events[0]
	if ev.Kind != "barrier-release" || ev.Node != "scheduler" || ev.Iter != 7 || ev.Detail != "round 7" {
		t.Fatalf("round-trip mangled event: %+v", ev)
	}
}

// TestFlightRecorderConcurrency interleaves writers and dumpers for -race.
func TestFlightRecorderConcurrency(t *testing.T) {
	r := obs.NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(obs.FlightEvent{Kind: "tick", Value: float64(g)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Dump()
			r.Events()
			r.Len()
		}
	}()
	wg.Wait()
	if r.Recorded() != 2000 {
		t.Fatalf("Recorded = %d, want 2000", r.Recorded())
	}

	// Seq stays strictly increasing in the retained window even under
	// contention.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not monotonic at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}

	// A nil recorder (unwired component) ignores writes.
	var nilRec *obs.FlightRecorder
	nilRec.Record(obs.FlightEvent{Kind: "x"})
	if nilRec.Len() != 0 || nilRec.Recorded() != 0 {
		t.Fatal("nil recorder should be inert")
	}
}
