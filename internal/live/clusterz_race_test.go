package live

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

// sink is a worker stand-in that swallows whatever the scheduler sends it.
type sink struct{}

func (sink) Init(node.Context)             {}
func (sink) Receive(node.ID, wire.Message) {}

// TestClusterzReadersRaceLiveScheduler builds the /clusterz view from two
// reader goroutines — one through Obs, one through the HTTP handler — while
// the scheduler's mailbox goroutine handles notifies, retunes at every epoch
// boundary, and runs its window-expiry and beacon timers. The view is
// materialised on the reader's goroutine from live scheduler state, so this
// is the test that has to stay clean under -race.
func TestClusterzReadersRaceLiveScheduler(t *testing.T) {
	const (
		workers = 8
		rounds  = 150
	)
	o := obs.New(obs.Options{})
	sched, err := core.NewScheduler(core.SchedulerConfig{
		Workers: workers, InitialSpan: 2 * time.Millisecond, Obs: o.Scheduler(),
		Scheme:      scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		Tuner:       core.TunerConfig{MaxAbort: time.Millisecond},
		BeaconEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[node.ID]node.Handler{node.Scheduler: sched}
	for i := 0; i < workers; i++ {
		handlers[node.WorkerID(i)] = sink{}
	}
	lb := newLoopback(t, TCPHostConfig{Seed: 5}, handlers)
	schedHost := lb.Host(node.Scheduler)
	handler := obs.NewHandler(obs.HTTPConfig{Registry: o.Registry(), Cluster: o.ClusterSnapshot})

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if snap, ok := o.ClusterSnapshot(); ok && len(snap.Workers) != workers {
				t.Errorf("view has %d rows, want %d", len(snap.Workers), workers)
				return
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/clusterz", nil))
			if rec.Code == http.StatusNotFound {
				continue // nothing handled yet
			}
			var snap obs.ClusterSnapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); rec.Code != http.StatusOK || err != nil {
				t.Errorf("/clusterz -> %d (%v)", rec.Code, err)
				return
			}
		}
	}()

	// Every worker notifies once per round, so each round closes an epoch.
	// Injected in round order: over the workers' own connections a fast
	// worker's next round could overtake a slow one's current round.
	for r := 0; r < rounds; r++ {
		for i := 0; i < workers; i++ {
			schedHost.Inject(node.WorkerID(i), &msg.Notify{Iter: int64(r)})
		}
		time.Sleep(200 * time.Microsecond) // spread the rounds so timers fire between them
	}
	deadline := time.Now().Add(10 * time.Second)
	for sched.Epoch() < rounds && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(done)
	readers.Wait()

	snap, ok := o.ClusterSnapshot()
	if !ok || snap.Epoch != rounds {
		t.Fatalf("final view ok=%v epoch=%d, want epoch %d", ok, snap.Epoch, rounds)
	}
	for _, w := range snap.Workers {
		if w.PushRate <= 0 {
			t.Errorf("worker %d row %+v after %d notifies", w.Index, w, rounds)
		}
	}
}
