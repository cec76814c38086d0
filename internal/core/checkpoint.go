package core

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// Scheduler checkpoint support, mirroring ps.Server's: the coordinator's
// speculation, epoch, membership and gate state serializes through the wire
// codec so a restarted incarnation resumes warm instead of rebuilding
// everything from worker StateReports. The open speculation windows are
// deliberately NOT checkpointed — they are in-flight state that the
// post-restart SchedulerHello handshake rebuilds from live traffic.

const (
	schedCheckpointMagic   uint32 = 0x53505348 // "SPSH"
	schedCheckpointVersion uint8  = 3
)

// SchedulerSnapshot is a point-in-time copy of the scheduler's durable state.
type SchedulerSnapshot struct {
	Generation      int64
	Epoch           int64
	MembershipEpoch int64
	EpochStart      time.Time

	// Speculation hyperparameters and measurement state.
	SpecEnabled bool
	AbortTime   time.Duration
	Rates       []float64
	SpanEWMA    []time.Duration
	LastNotify  []time.Time
	History     []PushRecord
	Tunes       int64

	// Epoch / membership progress; NotifyCount holds the gate's clocks.
	NotifyCount []int64
	Pushed      []bool
	Alive       []bool

	// The gate. A restarted incarnation must resume under the gate the fleet
	// is already running, not the configured initial one, or a mid-run
	// switch would silently revert.
	Released      int64
	GateBound     int
	GateQuorum    float64
	SchemeEpoch   int64
	LastSwitchWhy string
	LastSwitchAt  time.Time
}

// Snapshot captures the scheduler's current state. Call it only from the
// scheduler's own execution context (or after the runtime has stopped).
func (s *Scheduler) Snapshot() SchedulerSnapshot {
	return SchedulerSnapshot{
		Generation:      s.cfg.Generation,
		Epoch:           s.epoch.Load(),
		MembershipEpoch: s.membershipEpoch.Load(),
		EpochStart:      s.epochStart,
		SpecEnabled:     s.specEnabled,
		AbortTime:       s.abortTime,
		Rates:           append([]float64(nil), s.rates...),
		SpanEWMA:        append([]time.Duration(nil), s.spanEWMA...),
		LastNotify:      append([]time.Time(nil), s.lastNotify...),
		History:         append([]PushRecord(nil), s.history.Items()...),
		Tunes:           s.tunes,
		NotifyCount:     append([]int64(nil), s.notifyCount...),
		Pushed:          append([]bool(nil), s.pushed...),
		Alive:           append([]bool(nil), s.alive...),
		Released:        s.released,
		GateBound:       s.cur.Bound,
		GateQuorum:      s.cur.Quorum,
		SchemeEpoch:     s.schemeEpoch,
		LastSwitchWhy:   s.lastSwitchWhy,
		LastSwitchAt:    s.lastSwitchAt,
	}
}

// Restore overwrites the scheduler's state from a snapshot. It must run
// before Init. The worker count must match and every worker index and gate
// parameter must be in range — a snapshot is read from disk or the network,
// so a corrupt one is refused, never trusted. Counters derived from the
// restored slices (pushedN, aliveN, histCount) are recomputed, and the
// speculation windows start empty — the restart handshake rebuilds them.
func (s *Scheduler) Restore(snap SchedulerSnapshot) error {
	for name, n := range map[string]int{
		"Rates":       len(snap.Rates),
		"SpanEWMA":    len(snap.SpanEWMA),
		"LastNotify":  len(snap.LastNotify),
		"NotifyCount": len(snap.NotifyCount),
		"Pushed":      len(snap.Pushed),
		"Alive":       len(snap.Alive),
	} {
		if n != s.m {
			return fmt.Errorf("core: snapshot %s has %d entries, scheduler has %d workers", name, n, s.m)
		}
	}
	for _, rec := range snap.History {
		if rec.Worker < 0 || rec.Worker >= s.m {
			return fmt.Errorf("core: snapshot history names worker %d, scheduler has %d workers", rec.Worker, s.m)
		}
	}
	if snap.GateBound < scheme.Unbounded || !(snap.GateQuorum > 0 && snap.GateQuorum <= 1) {
		return fmt.Errorf("core: snapshot gate (bound %d, quorum %v) out of range", snap.GateBound, snap.GateQuorum)
	}
	s.epoch.Store(snap.Epoch)
	s.membershipEpoch.Store(snap.MembershipEpoch)
	s.epochStart = snap.EpochStart
	s.specEnabled = snap.SpecEnabled
	s.abortTime = snap.AbortTime
	copy(s.rates, snap.Rates)
	copy(s.spanEWMA, snap.SpanEWMA)
	copy(s.lastNotify, snap.LastNotify)
	s.history.Reset(snap.History)
	clear(s.histCount)
	for _, rec := range snap.History {
		s.histCount[rec.Worker]++
	}
	s.tunes = snap.Tunes
	copy(s.notifyCount, snap.NotifyCount)
	copy(s.pushed, snap.Pushed)
	copy(s.alive, snap.Alive)
	s.released = snap.Released
	s.cur = scheme.Gate{Bound: snap.GateBound, Quorum: snap.GateQuorum}
	s.schemeEpoch = snap.SchemeEpoch
	s.lastSwitchWhy = snap.LastSwitchWhy
	s.lastSwitchAt = snap.LastSwitchAt
	s.switches.Store(snap.SchemeEpoch)

	s.pushedN, s.aliveN = 0, 0
	for i := 0; i < s.m; i++ {
		if snap.Pushed[i] {
			s.pushedN++
		}
		if snap.Alive[i] {
			s.aliveN++
		}
	}
	s.restored = true
	return nil
}

// Restored reports whether this incarnation booted from a checkpoint.
func (s *Scheduler) Restored() bool { return s.restored }

// StateReports returns the number of worker state reports consumed since
// this incarnation started (same caveat as Alive).
func (s *Scheduler) StateReports() int64 { return s.stateReports }

// writeTime encodes a time with an explicit zero flag: virtual clocks and
// never-notified workers produce zero times that UnixNano cannot represent.
func writeTime(w *wire.Writer, t time.Time) {
	w.Bool(t.IsZero())
	if !t.IsZero() {
		w.Time(t)
	}
}

func readTime(r *wire.Reader) time.Time {
	if r.Bool() {
		return time.Time{}
	}
	return r.Time()
}

// WriteTo serializes the snapshot.
func (snap SchedulerSnapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(snap.encode())
	if err != nil {
		return int64(n), fmt.Errorf("core: writing scheduler checkpoint: %w", err)
	}
	return int64(n), nil
}

func (snap SchedulerSnapshot) encode() []byte {
	buf := wire.NewWriter(64 + 32*len(snap.Rates) + 16*len(snap.History))
	buf.Uint32(schedCheckpointMagic)
	buf.Uint8(schedCheckpointVersion)
	buf.Varint(snap.Generation)
	buf.Varint(snap.Epoch)
	buf.Varint(snap.MembershipEpoch)
	writeTime(buf, snap.EpochStart)
	buf.Bool(snap.SpecEnabled)
	buf.Duration(snap.AbortTime)
	buf.Float64s(snap.Rates)
	buf.Int(len(snap.SpanEWMA))
	for _, d := range snap.SpanEWMA {
		buf.Duration(d)
	}
	buf.Int(len(snap.LastNotify))
	for _, t := range snap.LastNotify {
		writeTime(buf, t)
	}
	buf.Int(len(snap.History))
	for _, rec := range snap.History {
		writeTime(buf, rec.At)
		buf.Int(rec.Worker)
	}
	buf.Varint(snap.Tunes)
	buf.Int(len(snap.NotifyCount))
	for _, c := range snap.NotifyCount {
		buf.Varint(c)
	}
	buf.Int(len(snap.Pushed))
	for _, b := range snap.Pushed {
		buf.Bool(b)
	}
	buf.Int(len(snap.Alive))
	for _, b := range snap.Alive {
		buf.Bool(b)
	}
	buf.Varint(snap.Released)
	buf.Int(snap.GateBound)
	buf.Float64(snap.GateQuorum)
	buf.Varint(snap.SchemeEpoch)
	buf.String(snap.LastSwitchWhy)
	writeTime(buf, snap.LastSwitchAt)
	return buf.Bytes()
}

// ReadSchedulerSnapshot deserializes a snapshot written by WriteTo. Every
// length prefix is bounded by the bytes left to read before anything is
// allocated, and a file that decodes but is not exactly what WriteTo would
// write for the decoded snapshot (an overlong varint, a boolean byte other
// than 0 or 1) is refused as corrupt.
func ReadSchedulerSnapshot(r io.Reader) (SchedulerSnapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return SchedulerSnapshot{}, fmt.Errorf("core: reading scheduler checkpoint: %w", err)
	}
	rd := wire.NewReader(data)
	if magic := rd.Uint32(); magic != schedCheckpointMagic {
		return SchedulerSnapshot{}, fmt.Errorf("core: bad scheduler checkpoint magic %#x", magic)
	}
	if v := rd.Uint8(); v != schedCheckpointVersion {
		return SchedulerSnapshot{}, fmt.Errorf("core: unsupported scheduler checkpoint version %d", v)
	}
	var snap SchedulerSnapshot
	snap.Generation = rd.Varint()
	snap.Epoch = rd.Varint()
	snap.MembershipEpoch = rd.Varint()
	snap.EpochStart = readTime(rd)
	snap.SpecEnabled = rd.Bool()
	snap.AbortTime = rd.Duration()
	snap.Rates = rd.Float64s()
	corrupt := false
	// readLen bounds a count by the bytes left: every element takes at
	// least one.
	readLen := func() int {
		n := rd.Int()
		if n < 0 || n > rd.Remaining() {
			corrupt = true
			return 0
		}
		return n
	}
	if n := readLen(); n > 0 {
		snap.SpanEWMA = make([]time.Duration, n)
		for i := range snap.SpanEWMA {
			snap.SpanEWMA[i] = rd.Duration()
		}
	}
	if n := readLen(); n > 0 {
		snap.LastNotify = make([]time.Time, n)
		for i := range snap.LastNotify {
			snap.LastNotify[i] = readTime(rd)
		}
	}
	if n := readLen(); n > 0 {
		snap.History = make([]PushRecord, n)
		for i := range snap.History {
			snap.History[i].At = readTime(rd)
			snap.History[i].Worker = rd.Int()
		}
	}
	snap.Tunes = rd.Varint()
	if n := readLen(); n > 0 {
		snap.NotifyCount = make([]int64, n)
		for i := range snap.NotifyCount {
			snap.NotifyCount[i] = rd.Varint()
		}
	}
	if n := readLen(); n > 0 {
		snap.Pushed = make([]bool, n)
		for i := range snap.Pushed {
			snap.Pushed[i] = rd.Bool()
		}
	}
	if n := readLen(); n > 0 {
		snap.Alive = make([]bool, n)
		for i := range snap.Alive {
			snap.Alive[i] = rd.Bool()
		}
	}
	snap.Released = rd.Varint()
	snap.GateBound = rd.Int()
	snap.GateQuorum = rd.Float64()
	snap.SchemeEpoch = rd.Varint()
	snap.LastSwitchWhy = rd.String()
	snap.LastSwitchAt = readTime(rd)
	if corrupt {
		return SchedulerSnapshot{}, fmt.Errorf("core: scheduler checkpoint has an implausible slice length")
	}
	if err := rd.Err(); err != nil {
		return SchedulerSnapshot{}, fmt.Errorf("core: decoding scheduler checkpoint: %w", err)
	}
	if rd.Remaining() != 0 {
		return SchedulerSnapshot{}, fmt.Errorf("core: scheduler checkpoint has %d trailing bytes", rd.Remaining())
	}
	if !bytes.Equal(snap.encode(), data) {
		return SchedulerSnapshot{}, fmt.Errorf("core: scheduler checkpoint is not in canonical form")
	}
	return snap, nil
}
