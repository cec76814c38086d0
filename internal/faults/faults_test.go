package faults

import (
	"reflect"
	"testing"
	"time"

	"specsync/internal/des"
	"specsync/internal/node"
	"specsync/internal/obs"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", Plan{}, true},
		{"crash", Plan{Events: []Event{{Kind: KindCrashWorker, At: time.Second, Node: 0, RestartAfter: time.Second}}}, true},
		{"negative-at", Plan{Events: []Event{{Kind: KindCrashWorker, At: -1}}}, false},
		{"negative-node", Plan{Events: []Event{{Kind: KindCrashServer, Node: -1}}}, false},
		{"unknown-kind", Plan{Events: []Event{{Kind: "meteor"}}}, false},
		{"partition-one-sided", Plan{Events: []Event{{Kind: KindPartition, A: []string{"worker/0"}, Duration: time.Second}}}, false},
		{"partition", Plan{Events: []Event{{Kind: KindPartition, A: []string{"worker/0"}, B: []string{"server/0"}, Duration: time.Second}}}, true},
		{"drop-bad-rate", Plan{Events: []Event{{Kind: KindDrop, Rate: 1.5}}}, false},
		{"delay-no-delay", Plan{Events: []Event{{Kind: KindDelay, Rate: 0.5}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{
		Seed: 42,
		Events: []Event{
			{Kind: KindCrashWorker, At: 2 * time.Second, Node: 1, RestartAfter: 3 * time.Second},
			{Kind: KindCrashServer, At: 4 * time.Second, Node: 0, RestartAfter: time.Second},
			{Kind: KindPartition, At: time.Second, Duration: 500 * time.Millisecond,
				A: []string{"worker/0", "worker/1"}, B: []string{"scheduler"}},
			{Kind: KindDrop, At: 0, Duration: time.Minute, Rate: 0.1},
			{Kind: KindDelay, At: time.Second, Rate: 0.5, Delay: 20 * time.Millisecond},
		},
	}
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, p)
	}
	if _, err := ParseJSON([]byte(`{"events":[{"kind":"meteor"}]}`)); err == nil {
		t.Error("ParseJSON accepted an invalid plan")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := ChurnConfig{
		Workers: 8, Servers: 4, Crashes: 10,
		Horizon: time.Minute, Downtime: 5 * time.Second, ServerFraction: 0.3,
	}
	a, err := Generate(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
	c, err := Generate(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
	if len(a.Events) != 10 {
		t.Errorf("generated %d events, want 10", len(a.Events))
	}
	for i, ev := range a.Events {
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Errorf("event %d At %v outside horizon", i, ev.At)
		}
		if ev.RestartAfter <= 0 {
			t.Errorf("event %d has no restart (downtime set)", i)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
	}
	if _, err := Generate(1, ChurnConfig{Workers: 0}); err == nil {
		t.Error("Generate accepted 0 workers")
	}
	if _, err := Generate(1, ChurnConfig{Workers: 2, Crashes: 1}); err == nil {
		t.Error("Generate accepted zero horizon with crashes")
	}
}

func TestFilterPartition(t *testing.T) {
	p := &Plan{Events: []Event{{
		Kind: KindPartition, At: time.Second, Duration: time.Second,
		A: []string{"worker/0"}, B: []string{"server/0", "scheduler"},
	}}}
	m := obs.New(obs.Options{}).Faults()
	f := NewFilter(p, m)
	if f.Empty() {
		t.Fatal("filter with a partition reports Empty")
	}

	check := func(from, to node.ID, elapsed time.Duration, wantDrop bool) {
		t.Helper()
		a := f.Action(from, to, elapsed)
		if a.Drop != wantDrop {
			t.Errorf("Action(%s->%s @%v).Drop = %v, want %v", from, to, elapsed, a.Drop, wantDrop)
		}
	}
	// Before the window: delivered.
	check("worker/0", "server/0", 500*time.Millisecond, false)
	// During: both directions dropped.
	check("worker/0", "server/0", 1500*time.Millisecond, true)
	check("scheduler", "worker/0", 1500*time.Millisecond, true)
	// Unrelated pair: delivered.
	check("worker/1", "server/0", 1500*time.Millisecond, false)
	// Same side: delivered.
	check("server/0", "scheduler", 1500*time.Millisecond, false)
	// After the window closes: delivered.
	check("worker/0", "scheduler", 2500*time.Millisecond, false)

	if st := m.Totals(); st.Drops != 2 {
		t.Errorf("drop counter = %d, want 2", st.Drops)
	}
}

func TestFilterRatesAndDeterminism(t *testing.T) {
	p := &Plan{Seed: 3, Events: []Event{
		{Kind: KindDrop, Rate: 0.5},
		{Kind: KindDelay, Rate: 0.5, Delay: 10 * time.Millisecond},
	}}
	run := func() []des.FaultAction {
		f := NewFilter(p, nil)
		var out []des.FaultAction
		for i := 0; i < 200; i++ {
			out = append(out, f.Action("worker/0", "server/0", time.Duration(i)*time.Millisecond))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same plan seed produced different fault sequences")
	}
	drops, delays := 0, 0
	for _, act := range a {
		if act.Drop {
			drops++
		}
		if act.Delay > 0 {
			delays++
		}
	}
	// Rate 0.5 over 200 trials: expect roughly half, generously bounded.
	if drops < 50 || drops > 150 {
		t.Errorf("drops = %d/200 at rate 0.5", drops)
	}
	if delays == 0 {
		t.Error("no delays at rate 0.5")
	}
}
