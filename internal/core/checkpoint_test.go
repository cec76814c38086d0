package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

func sampleSnapshot() SchedulerSnapshot {
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return SchedulerSnapshot{
		Generation:      2,
		Epoch:           7,
		MembershipEpoch: 3,
		EpochStart:      base,
		SpecEnabled:     true,
		AbortTime:       250 * time.Millisecond,
		Rates:           []float64{0.2, 0.25, 0.3},
		SpanEWMA:        []time.Duration{time.Second, 900 * time.Millisecond, 1100 * time.Millisecond},
		LastNotify:      []time.Time{base.Add(time.Second), {}, base.Add(2 * time.Second)},
		History: []PushRecord{
			{At: base.Add(500 * time.Millisecond), Worker: 0},
			{At: base.Add(1500 * time.Millisecond), Worker: 2},
		},
		Tunes:       4,
		NotifyCount: []int64{5, 4, 6},
		Pushed:      []bool{true, false, true},
		Alive:       []bool{true, true, false},

		Released:      4,
		GateBound:     3,
		GateQuorum:    1,
		SchemeEpoch:   2,
		LastSwitchWhy: "meta: 1 sustained straggler(s) → SSP(s=3)",
		LastSwitchAt:  base.Add(3 * time.Second),
	}
}

// normalizeTimes maps every timestamp to UTC: the wire codec decodes times in
// the local zone, which DeepEqual would treat as a difference.
func normalizeTimes(s SchedulerSnapshot) SchedulerSnapshot {
	s.EpochStart = s.EpochStart.UTC()
	s.LastNotify = append([]time.Time(nil), s.LastNotify...)
	for i := range s.LastNotify {
		s.LastNotify[i] = s.LastNotify[i].UTC()
	}
	s.History = append([]PushRecord(nil), s.History...)
	for i := range s.History {
		s.History[i].At = s.History[i].At.UTC()
	}
	s.LastSwitchAt = s.LastSwitchAt.UTC()
	return s
}

func TestSchedulerSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedulerSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeTimes(snap), normalizeTimes(got)) {
		t.Errorf("round trip mismatch:\n  wrote %+v\n  read  %+v", snap, got)
	}
}

func TestSchedulerSnapshotDecodeErrors(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadSchedulerSnapshot(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	if _, err := ReadSchedulerSnapshot(bytes.NewReader(append(append([]byte(nil), data...), 0xff))); err == nil {
		t.Error("trailing garbage decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := ReadSchedulerSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic decoded without error")
	}
}

func TestSchedulerRestoreRoundTrip(t *testing.T) {
	mk := func(gen int64) *Scheduler {
		s, err := NewScheduler(SchedulerConfig{
			Workers:     3,
			Scheme:      scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
			InitialSpan: time.Second,
			Generation:  gen,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	snap := sampleSnapshot()
	s := mk(snap.Generation)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !s.Restored() {
		t.Error("Restored() = false after Restore")
	}
	if got := s.Snapshot(); !reflect.DeepEqual(snap, got) {
		t.Errorf("restore/snapshot mismatch:\n  restored %+v\n  snapshot %+v", snap, got)
	}

	// A snapshot from a differently sized cluster must be rejected.
	wrong := sampleSnapshot()
	wrong.Rates = wrong.Rates[:2]
	if err := mk(1).Restore(wrong); err == nil {
		t.Error("Restore accepted a snapshot with a mismatched worker count")
	}
}

// TestSchedulerSnapshotRejectsCorrupt: a checkpoint is read from disk, so a
// corrupt one must come back as an error — never a panic, never an
// allocation sized by a length prefix the file cannot back.
func TestSchedulerSnapshotRejectsCorrupt(t *testing.T) {
	encode := func(mut func(*SchedulerSnapshot)) []byte {
		snap := sampleSnapshot()
		mut(&snap)
		return snap.encode()
	}
	// A header and the fields before the first length-prefixed slice, then
	// a length the bytes left cannot back.
	prefix := func(n int) []byte {
		w := wire.NewWriter(64)
		w.Uint32(schedCheckpointMagic)
		w.Uint8(schedCheckpointVersion)
		w.Varint(0)
		w.Varint(0)
		w.Varint(0)
		writeTime(w, time.Time{})
		w.Bool(false)
		w.Duration(0)
		w.Float64s(nil)
		w.Int(n)
		return w.Bytes()
	}
	v2 := encode(func(*SchedulerSnapshot) {})
	v2[4] = 2
	// The generation (2, one varint byte 0x04 after the 5-byte header)
	// re-encoded in two bytes: it decodes, but not as WriteTo writes it.
	valid := encode(func(*SchedulerSnapshot) {})
	overlong := append(append(append([]byte(nil), valid[:5]...), 0x84, 0x00), valid[6:]...)

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"history worker past m", encode(func(s *SchedulerSnapshot) { s.History[1].Worker = 3 }), "history names worker 3"},
		{"negative history worker", encode(func(s *SchedulerSnapshot) { s.History[0].Worker = -1 }), "history names worker -1"},
		{"gate quorum out of range", encode(func(s *SchedulerSnapshot) { s.GateQuorum = 0 }), "gate"},
		{"huge length", prefix(1 << 40), "implausible slice length"},
		{"length past the bytes left", prefix(8), "implausible slice length"},
		{"version 2 header", v2, "unsupported scheduler checkpoint version 2"},
		{"overlong varint", overlong, "canonical"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreBytes(t, tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// restoreBytes reads data as a scheduler checkpoint and restores it into a
// 3-worker scheduler (the sample's size).
func restoreBytes(t *testing.T, data []byte) error {
	snap, err := ReadSchedulerSnapshot(bytes.NewReader(data))
	if err != nil {
		return err
	}
	s, err := NewScheduler(SchedulerConfig{
		Workers:     3,
		Scheme:      scheme.Config{Base: scheme.ASP},
		InitialSpan: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Restore(snap)
}

// FuzzSchedulerSnapshot throws arbitrary bytes at the checkpoint reader and
// restores whatever decodes into a 4-worker scheduler: neither may panic.
// (The reader itself refuses any file that would not re-encode to the same
// bytes; TestSchedulerSnapshotRejectsCorrupt's overlong varint checks it.)
func FuzzSchedulerSnapshot(f *testing.F) {
	// A real version-3 snapshot: four SSP workers a few iterations in, one of
	// them behind.
	ws := []*scriptWorker{
		{notifies: mkDur(100, 200, 300)},
		{notifies: mkDur(110, 210, 310)},
		{notifies: mkDur(120, 220)},
		{notifies: mkDur(400)},
	}
	sim, sched := buildSim(f, SchedulerConfig{
		Workers:     4,
		Scheme:      scheme.Config{Base: scheme.SSP, Staleness: 2, Spec: scheme.SpecAdaptive},
		InitialSpan: 100 * time.Millisecond,
	}, ws)
	sim.RunUntilIdle(time.Second)
	f.Add(sched.Snapshot().encode())
	f.Add(sampleSnapshot().encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSchedulerSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, err := NewScheduler(SchedulerConfig{
			Workers:     4,
			Scheme:      scheme.Config{Base: scheme.BSP},
			InitialSpan: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = s.Restore(snap)
	})
}

// TestStateReportResendsRelease: a restarted scheduler restored with a
// released clock resends it to a worker that reports itself parked on it —
// the release may have gone out while the scheduler was down, and the gate
// will not move again until that worker does.
func TestStateReportResendsRelease(t *testing.T) {
	sched, err := NewScheduler(SchedulerConfig{
		Workers:     2,
		Scheme:      scheme.Config{Base: scheme.BSP},
		InitialSpan: time.Second,
		Generation:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := sched.Snapshot()
	snap.NotifyCount = []int64{3, 3}
	snap.Released = 3
	if err := sched.Restore(snap); err != nil {
		t.Fatal(err)
	}
	ws := []*scriptWorker{{}, {}}
	sim := buildMixedSim(t, sched, []node.Handler{ws[0], ws[1]})
	if err := sim.Inject(node.WorkerID(0), node.Scheduler, &msg.StateReport{Iter: 3, Clock: 3, Waiting: true}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Second)
	if got := ws[0].releases; len(got) != 1 || got[0] != 3 {
		t.Errorf("worker 0 releases = %v, want [3]", got)
	}
	if got := ws[1].releases; len(got) != 0 {
		t.Errorf("worker 1 releases = %v, want none (it reported nothing)", got)
	}
}
