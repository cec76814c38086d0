package metrics

import (
	"fmt"
	"io"
	"sync"

	"specsync/internal/wire"
)

// Faults accumulates fault-injection and recovery counters: injected message
// faults (drops, duplicates, delays) with the same message-class accounting
// as Transfer, failed transport sends, scheduler membership churn
// (evictions, readmissions), and checkpoint activity. It is safe for
// concurrent use; the live TCP stack records from multiple goroutines.
type Faults struct {
	mu      sync.Mutex
	drops   map[wire.Kind]int64
	dups    map[wire.Kind]int64
	delays  map[wire.Kind]int64
	classOf func(wire.Kind) bool // true = control (as in NewTransfer)

	crashes     int64
	restarts    int64
	evictions   int64
	readmits    int64
	checkpoints int64
	restores    int64

	sendFailures  int64
	schedCrashes  int64
	schedRestarts int64
	schedRestores int64
	stateReports  int64

	lostPushes int64
	promotions int64
	elections  int64
}

// NewFaults builds a Faults counter set; isControl classifies message kinds
// into control vs data traffic (use msg.IsControl), matching Transfer.
func NewFaults(isControl func(wire.Kind) bool) *Faults {
	return &Faults{
		drops:   make(map[wire.Kind]int64),
		dups:    make(map[wire.Kind]int64),
		delays:  make(map[wire.Kind]int64),
		classOf: isControl,
	}
}

// RecordDrop counts one injected (or fault-induced) message drop. Recording
// on a nil *Faults is a no-op so call sites need no guards.
func (f *Faults) RecordDrop(kind wire.Kind) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.drops[kind]++
	f.mu.Unlock()
}

// RecordDuplicate counts one injected message duplication.
func (f *Faults) RecordDuplicate(kind wire.Kind) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.dups[kind]++
	f.mu.Unlock()
}

// RecordDelay counts one injected message delay (reordering).
func (f *Faults) RecordDelay(kind wire.Kind) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.delays[kind]++
	f.mu.Unlock()
}

// RecordCrash counts one injected node crash.
func (f *Faults) RecordCrash() {
	if f != nil {
		f.add(&f.crashes)
	}
}

// RecordRestart counts one node restart after a crash.
func (f *Faults) RecordRestart() {
	if f != nil {
		f.add(&f.restarts)
	}
}

// RecordEviction counts one scheduler liveness eviction.
func (f *Faults) RecordEviction() {
	if f != nil {
		f.add(&f.evictions)
	}
}

// RecordReadmission counts one scheduler readmission of a returned worker.
func (f *Faults) RecordReadmission() {
	if f != nil {
		f.add(&f.readmits)
	}
}

// RecordCheckpoint counts one completed shard checkpoint.
func (f *Faults) RecordCheckpoint() {
	if f != nil {
		f.add(&f.checkpoints)
	}
}

// RecordRestore counts one checkpoint restore on restart.
func (f *Faults) RecordRestore() {
	if f != nil {
		f.add(&f.restores)
	}
}

// RecordSendFailure counts one message the transport failed to send (live
// mode).
func (f *Faults) RecordSendFailure() {
	if f != nil {
		f.add(&f.sendFailures)
	}
}

// RecordSchedulerCrash counts one injected scheduler crash (also counted in
// the generic crash total).
func (f *Faults) RecordSchedulerCrash() {
	if f != nil {
		f.mu.Lock()
		f.crashes++
		f.schedCrashes++
		f.mu.Unlock()
	}
}

// RecordSchedulerRestart counts one scheduler restart (also counted in the
// generic restart total).
func (f *Faults) RecordSchedulerRestart() {
	if f != nil {
		f.mu.Lock()
		f.restarts++
		f.schedRestarts++
		f.mu.Unlock()
	}
}

// RecordSchedulerRestore counts one scheduler checkpoint restore (also
// counted in the generic restore total).
func (f *Faults) RecordSchedulerRestore() {
	if f != nil {
		f.mu.Lock()
		f.restores++
		f.schedRestores++
		f.mu.Unlock()
	}
}

// RecordStateReport counts one worker state report consumed during a
// scheduler state rebuild.
func (f *Faults) RecordStateReport() {
	if f != nil {
		f.add(&f.stateReports)
	}
}

// RecordLostPushes counts pushes irrecoverably lost by a crash: applied by
// the dead node but absent from the state its replacement restored. A
// checkpoint restore loses everything since the last snapshot; a replica
// promotion records zero — the measurable zero-loss claim.
func (f *Faults) RecordLostPushes(n int64) {
	if f == nil || n <= 0 {
		return
	}
	f.mu.Lock()
	f.lostPushes += n
	f.mu.Unlock()
}

// RecordPromotion counts one backup replica promoted to shard primary.
func (f *Faults) RecordPromotion() {
	if f != nil {
		f.add(&f.promotions)
	}
}

// RecordElection counts one scheduler standby election won.
func (f *Faults) RecordElection() {
	if f != nil {
		f.add(&f.elections)
	}
}

func (f *Faults) add(p *int64) {
	f.mu.Lock()
	*p++
	f.mu.Unlock()
}

// FaultStats is a point-in-time copy of the scalar counters.
type FaultStats struct {
	Drops, Duplicates, Delays int64
	Crashes, Restarts         int64
	Evictions, Readmissions   int64
	Checkpoints, Restores     int64

	SendFailures                        int64
	SchedulerCrashes, SchedulerRestarts int64
	SchedulerRestores                   int64
	StateReports                        int64

	LostPushes int64
	Promotions int64
	Elections  int64
}

// Stats returns a snapshot of every counter (drop/dup/delay totals summed
// over kinds). A nil *Faults reports zeros.
func (f *Faults) Stats() FaultStats {
	if f == nil {
		return FaultStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FaultStats{
		Crashes:      f.crashes,
		Restarts:     f.restarts,
		Evictions:    f.evictions,
		Readmissions: f.readmits,
		Checkpoints:  f.checkpoints,
		Restores:     f.restores,

		SendFailures:      f.sendFailures,
		SchedulerCrashes:  f.schedCrashes,
		SchedulerRestarts: f.schedRestarts,
		SchedulerRestores: f.schedRestores,
		StateReports:      f.stateReports,

		LostPushes: f.lostPushes,
		Promotions: f.promotions,
		Elections:  f.elections,
	}
	for _, n := range f.drops {
		st.Drops += n
	}
	for _, n := range f.dups {
		st.Duplicates += n
	}
	for _, n := range f.delays {
		st.Delays += n
	}
	return st
}

// WritePrometheus writes the fault/recovery counters in the Prometheus text
// format (register as a Registry collector). Only the counters the
// replication and recovery dashboards consume are exported; the per-kind
// drop breakdown stays internal.
func (f *Faults) WritePrometheus(w io.Writer) {
	if f == nil {
		return
	}
	st := f.Stats()
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"specsync_crashes_total", "Injected node crashes.", st.Crashes},
		{"specsync_restarts_total", "Node restarts after crashes.", st.Restarts},
		{"specsync_restores_total", "Checkpoint restores on restart.", st.Restores},
		{"specsync_lost_pushes_total", "Pushes lost to crashes (applied but absent from the restored state). Zero under replication.", st.LostPushes},
		{"specsync_replica_promotions_total", "Backup replicas promoted to shard primary.", st.Promotions},
		{"specsync_scheduler_elections_total", "Scheduler standby elections won.", st.Elections},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
}

// DropSplit returns dropped-message counts as (data, control) according to
// the classifier, mirroring Transfer.Split.
func (f *Faults) DropSplit() (dataMsgs, controlMsgs int64) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for kind, n := range f.drops {
		if f.classOf != nil && f.classOf(kind) {
			controlMsgs += n
		} else {
			dataMsgs += n
		}
	}
	return dataMsgs, controlMsgs
}

// KindDrops returns the number of injected drops for one message kind.
func (f *Faults) KindDrops(kind wire.Kind) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drops[kind]
}
