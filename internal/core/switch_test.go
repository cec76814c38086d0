package core

import (
	"testing"
	"time"
)

// sec is the evaluation time s seconds into the run.
func sec(s int) time.Time { return time.Unix(0, 0).Add(time.Duration(s) * time.Second) }

// metaReplay replays the scheduler's use of metaStep on a scripted
// sustained-straggler signal: it flips the gate and stamps the switch time
// whenever the step fires.
type metaReplay struct {
	streak   int
	loose    bool
	lastAt   time.Time
	switches int
}

func (d *metaReplay) step(now time.Time, sustained int) bool {
	dwelt := d.switches == 0 || now.Sub(d.lastAt) >= metaMinDwell
	if !metaStep(&d.streak, d.loose, dwelt, 0, sustained, 0) {
		return false
	}
	d.loose = !d.loose
	d.lastAt = now
	d.switches++
	return true
}

// TestScriptedHysteresis walks the meta policy through a scripted straggler
// episode: homogeneous fleet, a sustained straggler appears, persists, then
// recovers. Exactly one loosening and one recovery must fire, each only
// after the condition held for metaHoldEpochs evaluations, and the recovery
// only once the dwell since the loosening is served.
func TestScriptedHysteresis(t *testing.T) {
	var d metaReplay
	script := []struct {
		sec       int
		sustained int
		wantFire  bool
		wantLoose bool
	}{
		{0, 0, false, false},
		{1, 0, false, false},
		{2, 1, false, false}, // first hit: streak 1 of 2
		{3, 1, true, true},   // held 2 epochs → loosen
		{4, 1, false, true},  // already loose
		{5, 1, false, true},
		{6, 0, false, true},  // recovery streak 1 of 2
		{7, 0, false, true},  // streak 2, but the dwell (10s since t=3) is not served
		{12, 0, false, true}, // still inside the dwell
		{13, 0, true, false}, // dwell served → recover
		{14, 0, false, false},
		{15, 0, false, false},
	}
	for _, step := range script {
		fired := d.step(sec(step.sec), step.sustained)
		if fired != step.wantFire || d.loose != step.wantLoose {
			t.Fatalf("t=%ds sustained=%d: fired=%v loose=%v, want %v and %v",
				step.sec, step.sustained, fired, d.loose, step.wantFire, step.wantLoose)
		}
	}
	if d.switches != 2 {
		t.Errorf("switches = %d, want 2", d.switches)
	}
}

// TestNoFlapOnBorderline alternates the signal every epoch; holding for
// metaHoldEpochs means the policy must never switch at all.
func TestNoFlapOnBorderline(t *testing.T) {
	var d metaReplay
	for i := 0; i < 50; i++ {
		if d.step(sec(i), i%2) {
			t.Fatalf("flapped at evaluation %d", i)
		}
	}
}

// TestDwellDefersNotCancels: the recovery condition keeps holding through
// the dwell window, and the switch fires at the first evaluation after the
// dwell expires.
func TestDwellDefersNotCancels(t *testing.T) {
	var d metaReplay
	d.step(sec(0), 1)
	if !d.step(sec(1), 1) {
		t.Fatal("the first loosening should fire once held (no prior switch to dwell on)")
	}
	for i := 2; i <= 10; i++ {
		if d.step(sec(i), 0) {
			t.Fatalf("recovery fired at t=%ds inside the dwell", i)
		}
	}
	if !d.step(sec(11), 0) || d.loose {
		t.Fatalf("recovery should fire at dwell expiry (t=11s), loose=%v", d.loose)
	}
}
