package metrics

import (
	"sync"
	"testing"

	"specsync/internal/wire"
)

func TestFaultsCounters(t *testing.T) {
	isControl := func(k wire.Kind) bool { return k >= 5 }
	f := NewFaults(isControl)

	f.RecordDrop(wire.Kind(3)) // data
	f.RecordDrop(wire.Kind(3))
	f.RecordDrop(wire.Kind(6)) // control
	f.RecordDuplicate(wire.Kind(3))
	f.RecordDelay(wire.Kind(6))
	f.RecordSendFailure()
	f.RecordSendFailure()
	f.RecordCrash()
	f.RecordRestart()
	f.RecordEviction()
	f.RecordReadmission()
	f.RecordCheckpoint()
	f.RecordRestore()

	st := f.Stats()
	want := FaultStats{
		Drops: 3, Duplicates: 1, Delays: 1, SendFailures: 2,
		Crashes: 1, Restarts: 1, Evictions: 1, Readmissions: 1,
		Checkpoints: 1, Restores: 1,
	}
	if st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	data, control := f.DropSplit()
	if data != 2 || control != 1 {
		t.Errorf("DropSplit = (%d, %d), want (2, 1)", data, control)
	}
	if n := f.KindDrops(wire.Kind(3)); n != 2 {
		t.Errorf("KindDrops(3) = %d, want 2", n)
	}
}

func TestFaultsNilSafe(t *testing.T) {
	var f *Faults
	f.RecordDrop(1)
	f.RecordDuplicate(1)
	f.RecordDelay(1)
	f.RecordSendFailure()
	f.RecordCrash()
	f.RecordRestart()
	f.RecordEviction()
	f.RecordReadmission()
	f.RecordCheckpoint()
	f.RecordRestore()
	if st := f.Stats(); st != (FaultStats{}) {
		t.Errorf("nil Stats = %+v, want zeros", st)
	}
	if d, c := f.DropSplit(); d != 0 || c != 0 {
		t.Error("nil DropSplit non-zero")
	}
}

func TestFaultsConcurrent(t *testing.T) {
	f := NewFaults(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				f.RecordDrop(wire.Kind(j % 3))
				f.RecordSendFailure()
			}
		}()
	}
	wg.Wait()
	st := f.Stats()
	if st.Drops != 800 || st.SendFailures != 800 {
		t.Errorf("concurrent counts: %+v", st)
	}
}
