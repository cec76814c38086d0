package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"specsync/internal/obs"
)

// fleetSizes are the scheduler's three measured scales: a paper-sized
// cluster, a large one, and the sim_fleet ledger workload.
var fleetSizes = []int{8, 64, 512}

// BenchmarkSchedulerNotify is one steady-state notify that closes no epoch,
// telemetry attached and nobody reading /clusterz: span estimate, straggler
// score, history append and trim, window counting.
func BenchmarkSchedulerNotify(b *testing.B) {
	for _, m := range fleetSizes {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			notify := steadyNotifier(b, m, obs.New(obs.Options{}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				notify()
			}
		})
	}
}

// tuneInput is one adaptive retune over a full history: 32 rounds of evenly
// paced workers with jittered phases, the last round as the epoch, and the
// search bounds the cluster harness derives from the iteration time.
func tuneInput(m int) (cfg TunerConfig, history, epoch []PushRecord, lastPull []time.Time, spans []time.Duration) {
	const iterTime = 100 * time.Millisecond
	rng := rand.New(rand.NewSource(3))
	start := time.Unix(1_700_000_000, 0)
	history = make([]PushRecord, 0, 32*m)
	lastPull = make([]time.Time, m)
	spans = make([]time.Duration, m)
	for round := 0; round < 32; round++ {
		for _, w := range rng.Perm(m) {
			at := start.Add(time.Duration(round)*iterTime + time.Duration(rng.Int63n(int64(iterTime))))
			history = append(history, PushRecord{At: at, Worker: w})
		}
		slices.SortFunc(history[round*m:], func(p, q PushRecord) int { return p.At.Compare(q.At) })
	}
	for _, p := range history {
		lastPull[p.Worker] = p.At
	}
	for i := range spans {
		spans[i] = iterTime
	}
	cfg = TunerConfig{Workers: m, MinAbort: time.Millisecond, MaxAbort: iterTime / 8, MaxCandidates: 512}
	return cfg, history, history[31*m:], lastPull, spans
}

// BenchmarkTune is one retune of tuneInput on the scheduler's warm Tuner.
func BenchmarkTune(b *testing.B) {
	for _, m := range fleetSizes {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			cfg, history, epoch, lastPull, spans := tuneInput(m)
			var tu Tuner
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tu.Tune(cfg, history, epoch, lastPull, spans); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWarmTuneAllocatesOnlyRates pins the Tuner's buffer ownership: once
// warm, a retune at sim_fleet's m = 512 allocates one object, the Rates the
// result carries out.
func TestWarmTuneAllocatesOnlyRates(t *testing.T) {
	cfg, history, epoch, lastPull, spans := tuneInput(512)
	var tu Tuner
	tune := func() {
		tn, err := tu.Tune(cfg, history, epoch, lastPull, spans)
		if err != nil || !tn.Enabled {
			t.Fatalf("tune: %+v, %v", tn, err)
		}
	}
	tune()
	if allocs := testing.AllocsPerRun(20, tune); allocs != 1 {
		t.Errorf("a warm retune allocates %v objects, want 1 (Rates)", allocs)
	}
}
