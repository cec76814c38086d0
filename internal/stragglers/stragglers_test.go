package stragglers

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"specsync/internal/node"
	"specsync/internal/worker"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"pause ok", Event{Kind: KindPause, Worker: 1, At: time.Second, Duration: 5 * time.Second}, true},
		{"pause needs duration", Event{Kind: KindPause, Worker: 1, At: time.Second}, false},
		{"degrade ok", Event{Kind: KindDegrade, Worker: 0, Speed: 0.5}, true},
		{"degrade speed 0", Event{Kind: KindDegrade, Worker: 0, Speed: 0}, false},
		{"degrade speed 1", Event{Kind: KindDegrade, Worker: 0, Speed: 1}, false},
		{"congest ok", Event{Kind: KindCongest, Worker: 2, Speed: 0.25, At: time.Minute}, true},
		{"rack ok", Event{Kind: KindRack, Workers: []int{0, 1, 2}, Speed: 0.5}, true},
		{"rack empty group", Event{Kind: KindRack, Speed: 0.5}, false},
		{"rack negative member", Event{Kind: KindRack, Workers: []int{0, -1}, Speed: 0.5}, false},
		{"negative at", Event{Kind: KindDegrade, Worker: 0, Speed: 0.5, At: -time.Second}, false},
		{"negative worker", Event{Kind: KindDegrade, Worker: -1, Speed: 0.5}, false},
		{"unknown kind", Event{Kind: "melt", Worker: 0, Speed: 0.5}, false},
	}
	for _, c := range cases {
		p := &Plan{Events: []Event{c.ev}}
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestPlanJSONRoundtrip(t *testing.T) {
	p := &Plan{Seed: 3, Events: []Event{
		{Kind: KindPause, Worker: 3, At: 10 * time.Second, Duration: 30 * time.Second},
		{Kind: KindRack, Workers: []int{0, 1}, Speed: 0.5, At: time.Minute},
	}}
	data, err := p.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if !reflect.DeepEqual(p, back) {
		t.Errorf("roundtrip drift:\n in: %+v\nout: %+v", p, back)
	}
	if _, err := ParseJSON([]byte(`{"events":[{"kind":"pause","worker":1,"durration":5}]}`)); err == nil {
		t.Error("misspelled field accepted; want an unknown-field error")
	}
	if _, err := ParseJSON([]byte(`{"events":[{"kind":"degrade","worker":0,"speed":2}]}`)); err == nil {
		t.Error("invalid plan accepted by ParseJSON")
	}
}

func TestPlanTargetsAndMaxWorker(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindDegrade, Worker: 2, Speed: 0.5},
		{Kind: KindRack, Workers: []int{5, 1, 2}, Speed: 0.5},
		{Kind: KindCongest, Worker: 0, Speed: 0.5},
	}}
	if got := p.Targets(); !reflect.DeepEqual(got, []int{0, 1, 2, 5}) {
		t.Errorf("Targets() = %v", got)
	}
	if got := p.MaxWorker(); got != 5 {
		t.Errorf("MaxWorker() = %d, want 5", got)
	}
	var nilPlan *Plan
	if got := nilPlan.MaxWorker(); got != -1 {
		t.Errorf("nil MaxWorker() = %d, want -1", got)
	}
	if nilPlan.Targets() != nil {
		t.Error("nil Targets() non-nil")
	}
	if !nilPlan.Empty() || !(&Plan{}).Empty() {
		t.Error("nil/zero plan not Empty")
	}
}

func TestPlanScripts(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindPause, Worker: 1, At: 10 * time.Second, Duration: 5 * time.Second},
		{Kind: KindDegrade, Worker: 2, At: time.Second, Speed: 0.5},
		{Kind: KindCongest, Worker: 0, Speed: 0.25}, // network-side only
		{Kind: KindRack, Workers: []int{0, 3}, At: time.Minute, Duration: time.Minute, Speed: 0.2},
	}}
	scripts, err := p.Scripts(4)
	if err != nil {
		t.Fatalf("Scripts: %v", err)
	}
	if len(scripts) != 4 {
		t.Fatalf("got %d scripts, want 4", len(scripts))
	}
	// Worker 0: only the rack window (congest contributes nothing).
	want0 := []worker.SpeedWindow{{From: time.Minute, Until: 2 * time.Minute, Factor: 5}}
	if !reflect.DeepEqual(scripts[0], want0) {
		t.Errorf("worker 0 script %+v, want %+v", scripts[0], want0)
	}
	want1 := []worker.SpeedWindow{{From: 10 * time.Second, Until: 15 * time.Second, Pause: true}}
	if !reflect.DeepEqual(scripts[1], want1) {
		t.Errorf("worker 1 script %+v, want %+v", scripts[1], want1)
	}
	// Worker 2: open-ended degrade (Until zero), factor 1/speed.
	want2 := []worker.SpeedWindow{{From: time.Second, Factor: 2}}
	if !reflect.DeepEqual(scripts[2], want2) {
		t.Errorf("worker 2 script %+v, want %+v", scripts[2], want2)
	}

	if _, err := p.Scripts(3); err == nil {
		t.Error("plan targeting worker 3 accepted for a 3-worker cluster")
	}
	empty, err := (&Plan{}).Scripts(2)
	if err != nil {
		t.Fatalf("empty Scripts: %v", err)
	}
	for i, s := range empty {
		if s != nil {
			t.Errorf("empty plan produced a script for worker %d", i)
		}
	}
}

func TestLinkPenalty(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindCongest, Worker: 1, At: 10 * time.Second, Duration: 10 * time.Second, Speed: 0.5},
		{Kind: KindCongest, Worker: 1, At: 15 * time.Second, Speed: 0.25}, // overlapping, open-ended
	}}
	pen := p.LinkPenalty()
	if pen == nil {
		t.Fatal("nil penalty for a congest plan")
	}
	w1, srv := node.WorkerID(1), node.ServerID(0)
	cases := []struct {
		from, to node.ID
		at       time.Duration
		want     float64
	}{
		{w1, srv, 5 * time.Second, 1},                // before the window
		{w1, srv, 12 * time.Second, 2},               // first episode only
		{srv, w1, 12 * time.Second, 2},               // direction-agnostic
		{w1, srv, 16 * time.Second, 8},               // overlap composes: 2 * 4
		{w1, srv, 25 * time.Second, 4},               // first closed, open-ended persists
		{node.WorkerID(2), srv, 16 * time.Second, 1}, // untouched link
	}
	for _, c := range cases {
		if got := pen(c.from, c.to, c.at); got != c.want {
			t.Errorf("pen(%v→%v @%v) = %v, want %v", c.from, c.to, c.at, got, c.want)
		}
	}
	if (&Plan{Events: []Event{{Kind: KindDegrade, Worker: 0, Speed: 0.5}}}).LinkPenalty() != nil {
		t.Error("compute-only plan returned a link penalty hook")
	}
}

func TestParseMitigation(t *testing.T) {
	for s, want := range map[string]Mitigation{
		"": MitigateNone, "none": MitigateNone, "clone": MitigateClone, "rebalance": MitigateRebalance,
	} {
		got, err := ParseMitigation(s)
		if err != nil || got != want {
			t.Errorf("ParseMitigation(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseMitigation("retry"); err == nil {
		t.Error("unknown mitigation accepted")
	}
	if err := Mitigation("retry").Validate(); err == nil {
		t.Error("unknown mitigation validated")
	}
	var axis []Mitigation
	if err := json.Unmarshal([]byte(`["none", "clone", "rebalance"]`), &axis); err != nil ||
		!reflect.DeepEqual(axis, []Mitigation{MitigateNone, MitigateClone, MitigateRebalance}) {
		t.Errorf("spec mitigations decoded to %q, %v", axis, err)
	}
	if err := json.Unmarshal([]byte(`"retry"`), new(Mitigation)); err == nil {
		t.Error("unknown spec mitigation decoded")
	}
}

func TestScoreDetection(t *testing.T) {
	s := ScoreDetection([]int{1, 3}, []int{3, 2})
	if s.TruePositives != 1 || s.FalsePositives != 1 || s.FalseNegatives != 1 {
		t.Errorf("tp/fp/fn = %d/%d/%d", s.TruePositives, s.FalsePositives, s.FalseNegatives)
	}
	if s.Precision != 0.5 || s.Recall != 0.5 {
		t.Errorf("precision %v recall %v, want 0.5/0.5", s.Precision, s.Recall)
	}
	if !reflect.DeepEqual(s.Truth, []int{1, 3}) || !reflect.DeepEqual(s.Detected, []int{2, 3}) {
		t.Errorf("sets %v / %v", s.Truth, s.Detected)
	}
	if s := ScoreDetection(nil, nil); s.Precision != 1 || s.Recall != 1 {
		t.Errorf("empty-set score %+v, want perfect", s)
	}
	if s := ScoreDetection(nil, []int{0}); s.Precision != 0 || s.Recall != 1 {
		t.Errorf("false-alarm score %+v", s)
	}
	if s := ScoreDetection([]int{0}, nil); s.Precision != 1 || s.Recall != 0 {
		t.Errorf("miss score %+v", s)
	}
}
