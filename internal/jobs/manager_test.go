package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRunner drives a Manager without a simulator: a sorted timer queue
// advanced by hand, plus spawn/halt/cleanup/probe journals.
type fakeRunner struct {
	now      time.Duration
	timers   []fakeTimer
	spawned  []int
	halted   []int
	cleaned  []int
	loss     map[int]float64
	spawnErr map[int]error
	allDone  bool
}

type fakeTimer struct {
	at time.Duration
	f  func()
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{loss: map[int]float64{}, spawnErr: map[int]error{}}
}

func (r *fakeRunner) config(tick time.Duration, maxConc int) ManagerConfig {
	return ManagerConfig{
		TickEvery:     tick,
		MaxConcurrent: maxConc,
		Now:           func() time.Duration { return r.now },
		Schedule: func(d time.Duration, f func()) {
			r.timers = append(r.timers, fakeTimer{at: r.now + d, f: f})
		},
		Spawn: func(j *Job) error {
			if err := r.spawnErr[j.ID]; err != nil {
				return err
			}
			r.spawned = append(r.spawned, j.ID)
			return nil
		},
		Halt:    func(j *Job) { r.halted = append(r.halted, j.ID) },
		Cleanup: func(j *Job) { r.cleaned = append(r.cleaned, j.ID) },
		Probe: func(j *Job) ProbeSample {
			return ProbeSample{Loss: r.loss[j.ID], Iters: 10, Pushes: 20}
		},
		OnAllDone: func() { r.allDone = true },
	}
}

// step fires the earliest pending timer.
func (r *fakeRunner) step(t *testing.T) {
	t.Helper()
	if len(r.timers) == 0 {
		t.Fatal("no pending timers")
	}
	sort.SliceStable(r.timers, func(a, b int) bool { return r.timers[a].at < r.timers[b].at })
	tm := r.timers[0]
	r.timers = r.timers[1:]
	if tm.at > r.now {
		r.now = tm.at
	}
	tm.f()
}

func submitN(m *Manager, n int) []*Job {
	out := make([]*Job, n)
	for i := range out {
		j := &Job{Name: fmt.Sprintf("j%d", i), Workers: 2, TargetLoss: 0.1, EvalEvery: time.Second, ConsecutiveBelow: 2}
		m.Submit(j)
		out[i] = j
	}
	return out
}

func TestManagerAdmissionAndConvergence(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	js := submitN(m, 2)
	js[1].SubmitAt = 3 * time.Second // staggered arrival
	r.loss[0], r.loss[1] = 1.0, 1.0

	m.Start()
	r.step(t) // t=0: admit job 0 only
	if js[0].State != Running || js[1].State != Pending {
		t.Fatalf("states after t=0: %v, %v", js[0].State, js[1].State)
	}
	r.step(t) // t=1s
	r.step(t) // t=2s
	if js[1].State != Pending {
		t.Fatalf("job 1 admitted early at %v", r.now)
	}
	r.step(t) // t=3s: job 1 due
	if js[1].State != Running || js[1].AdmittedAt != 3*time.Second {
		t.Fatalf("job 1 not admitted at 3s: %v @%v", js[1].State, js[1].AdmittedAt)
	}

	// Drop job 0 below target: converges after ConsecutiveBelow=2 probes.
	r.loss[0] = 0.05
	r.step(t) // t=4s: streak 1
	if js[0].State != Running {
		t.Fatalf("job 0 converged after one probe")
	}
	r.step(t) // t=5s: streak 2 → converged
	if js[0].State != Converged {
		t.Fatalf("job 0 state %v, want converged", js[0].State)
	}
	if js[0].ConvergeTime == 0 || js[0].FinishedAt != 5*time.Second {
		t.Errorf("converge bookkeeping: time %v, finished %v", js[0].ConvergeTime, js[0].FinishedAt)
	}
	if len(r.halted) != 1 || r.halted[0] != 0 {
		t.Errorf("halted = %v", r.halted)
	}
	// Janitor runs one tick later (in-flight drain).
	if len(r.cleaned) != 0 {
		t.Errorf("cleaned same tick as retirement")
	}
	r.step(t)
	if len(r.cleaned) != 1 || r.cleaned[0] != 0 {
		t.Errorf("cleaned = %v", r.cleaned)
	}

	// Finish job 1; the loop stops and OnAllDone fires once.
	r.loss[1] = 0.05
	r.step(t)
	r.step(t)
	if js[1].State != Converged {
		t.Fatalf("job 1 state %v", js[1].State)
	}
	if !r.allDone {
		t.Errorf("OnAllDone not fired")
	}
	if len(r.timers) != 0 {
		t.Errorf("loop still scheduling after quiescence")
	}
	if m.Ticks() == 0 {
		t.Errorf("no ticks counted")
	}
}

// TestManagerLateSubmit pins the Submit contract after quiescence: once the
// queue drains and no job is running the loop stops rescheduling, so a later
// submission must re-arm it (and OnAllDone fires again at the next
// quiescence) instead of leaving the job Pending forever.
func TestManagerLateSubmit(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	js := submitN(m, 1)
	r.loss[0] = 0.05
	m.Start()
	r.step(t) // t=0: admit
	r.step(t) // t=1s: streak 1
	r.step(t) // t=2s: streak 2 → converged, quiescent
	if js[0].State != Converged || !r.allDone {
		t.Fatalf("setup: state %v, allDone %v", js[0].State, r.allDone)
	}
	if len(r.timers) != 0 {
		t.Fatalf("loop still scheduling after quiescence")
	}

	r.allDone = false
	late := &Job{Name: "late", Workers: 1, TargetLoss: 0.1, EvalEvery: time.Second, ConsecutiveBelow: 1}
	if id := m.Submit(late); id != 1 {
		t.Fatalf("late job id = %d, want 1", id)
	}
	if len(r.timers) != 1 {
		t.Fatalf("late submit did not re-arm the control loop (%d timers)", len(r.timers))
	}
	r.loss[1] = 0.01
	r.step(t) // re-armed tick: admit
	if late.State != Running {
		t.Fatalf("late job state %v, want running", late.State)
	}
	r.step(t) // probe → converged → quiescent again
	if late.State != Converged {
		t.Fatalf("late job state %v, want converged", late.State)
	}
	if !r.allDone {
		t.Errorf("OnAllDone not re-fired after late job finished")
	}
	if len(r.timers) != 0 {
		t.Errorf("loop still scheduling after second quiescence")
	}
}

// TestSubmitPreparedError checks that a failing prepare hook discards the
// job without consuming its ID or making it visible.
func TestSubmitPreparedError(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Name: "bad", Workers: 1}
	if _, err := m.SubmitPrepared(j, func(int) error { return fmt.Errorf("nope") }); err == nil {
		t.Fatal("prepare error not returned")
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("discarded job visible: %d jobs", n)
	}
	if id := m.Submit(&Job{Name: "good", Workers: 1, TargetLoss: 0.1, EvalEvery: time.Second}); id != 0 {
		t.Errorf("discarded job consumed ID: next id = %d, want 0", id)
	}
}

// TestSubmitPreparedConcurrent races SubmitPrepared against the control loop
// (run with -race): the prepare hook sets ID-dependent state under the
// manager lock, so no tick may ever spawn a job with a nil payload, and
// submissions that land on a quiescent manager must still be admitted.
func TestSubmitPreparedConcurrent(t *testing.T) {
	var tmu sync.Mutex
	var timers []func()
	cfg := ManagerConfig{
		TickEvery: time.Second,
		Now:       func() time.Duration { return 0 },
		Schedule: func(d time.Duration, f func()) {
			tmu.Lock()
			timers = append(timers, f)
			tmu.Unlock()
		},
		Spawn: func(j *Job) error {
			if j.Payload == nil {
				t.Errorf("job %d spawned with nil payload", j.ID)
			}
			if j.Name == "" {
				t.Errorf("job %d spawned with empty name", j.ID)
			}
			return nil
		},
		Halt:  func(*Job) {},
		Probe: func(*Job) ProbeSample { return ProbeSample{Loss: 0} },
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	// Driver: fire queued ticks until told to stop and the queue is dry.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			tmu.Lock()
			var f func()
			if len(timers) > 0 {
				f = timers[0]
				timers = timers[1:]
			}
			tmu.Unlock()
			if f != nil {
				f()
				continue
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	const goroutines, perG = 4, 25
	var subs sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < perG; i++ {
				// Jobs converge on their admission tick (loss 0 < target,
				// streak 1), so the manager repeatedly goes quiescent and
				// later submissions exercise the re-arm path.
				j := &Job{Workers: 1, TargetLoss: 0.1, ConsecutiveBelow: 1}
				if _, err := m.SubmitPrepared(j, func(id int) error {
					j.Name = fmt.Sprintf("c%d", id)
					j.Payload = id
					return nil
				}); err != nil {
					t.Errorf("SubmitPrepared: %v", err)
				}
			}
		}()
	}
	subs.Wait()
	// Let the driver drain every remaining tick (each submission guarantees
	// a scheduled tick, so the queue only dries up after full admission).
	for {
		tmu.Lock()
		n := len(timers)
		tmu.Unlock()
		if n == 0 {
			break
		}
		runtime.Gosched()
	}
	close(stop)
	driver.Wait()

	all := m.Jobs()
	if len(all) != goroutines*perG {
		t.Fatalf("jobs = %d, want %d", len(all), goroutines*perG)
	}
	for _, j := range all {
		if j.Payload == nil {
			t.Errorf("job %d has nil payload", j.ID)
		}
		if !j.State.Terminal() {
			t.Errorf("job %d not terminal: %v", j.ID, j.State)
		}
	}
}

func TestManagerMaxConcurrent(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 1))
	if err != nil {
		t.Fatal(err)
	}
	js := submitN(m, 2)
	r.loss[0], r.loss[1] = 1.0, 1.0
	m.Start()
	r.step(t)
	if js[0].State != Running || js[1].State != Pending {
		t.Fatalf("cap ignored: %v, %v", js[0].State, js[1].State)
	}
	// Retiring job 0 frees the slot; job 1 is admitted the same tick.
	m.RequestStop(0)
	r.step(t)
	if js[0].State != Stopped {
		t.Fatalf("job 0 state %v", js[0].State)
	}
	r.step(t)
	if js[1].State != Running {
		t.Fatalf("job 1 not admitted after slot freed: %v", js[1].State)
	}
}

func TestManagerByteBudget(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Name: "b", Workers: 1, TargetLoss: 0.1, EvalEvery: time.Second,
		Quota: Quota{ByteBudget: 100}}
	m.Submit(j)
	r.loss[0] = 1.0
	m.Start()
	r.step(t)
	if j.State != Running {
		t.Fatal("not admitted")
	}
	j.Acct.Transfer.RecordTransfer("a", "b", 3, 101, time.Unix(0, 0))
	r.step(t)
	if j.State != OverBudget {
		t.Fatalf("state %v, want over_budget", j.State)
	}
	// The final probe sample was taken at retirement.
	if j.Iters != 10 || j.Pushes != 20 {
		t.Errorf("no retirement sample: iters %d, pushes %d", j.Iters, j.Pushes)
	}
}

func TestManagerSpawnFailure(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	js := submitN(m, 2)
	r.spawnErr[0] = fmt.Errorf("no capacity")
	r.loss[1] = 1.0
	m.Start()
	r.step(t)
	if js[0].State != Failed || js[0].Err != "no capacity" {
		t.Fatalf("job 0: %v %q", js[0].State, js[0].Err)
	}
	// The failure does not block the next job in the queue.
	if js[1].State != Running {
		t.Fatalf("job 1 blocked by job 0 failure: %v", js[1].State)
	}
}

func TestManagerFinalize(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 1))
	if err != nil {
		t.Fatal(err)
	}
	js := submitN(m, 2)
	r.loss[0] = 1.0
	m.Start()
	r.step(t) // job 0 running, job 1 queued behind the cap
	r.now += 10 * time.Second
	m.Finalize()
	if js[0].State != Stopped {
		t.Errorf("running job after Finalize: %v", js[0].State)
	}
	if js[1].State != Stopped {
		t.Errorf("queued job after Finalize: %v", js[1].State)
	}
	if len(r.cleaned) != 2 {
		t.Errorf("cleaned = %v, want both", r.cleaned)
	}
	// The deadline sample reflects the final probe.
	if js[0].Iters != 10 {
		t.Errorf("no final sample on Finalize")
	}
	m.Finalize() // idempotent
	if len(r.cleaned) != 2 {
		t.Errorf("Finalize not idempotent: cleaned %v", r.cleaned)
	}
}

func TestManagerStatusAndList(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	submitN(m, 2)
	if _, ok := m.Status(5); ok {
		t.Errorf("Status(5) found a job")
	}
	e, ok := m.Status(1)
	if !ok || e.ID != 1 || e.Name != "j1" || e.State != "pending" {
		t.Errorf("Status(1) = %+v", e)
	}
	l := m.List()
	if len(l) != 2 || l[0].ID != 0 || l[1].ID != 1 {
		t.Errorf("List = %+v", l)
	}
	if err := m.RequestStop(9); err == nil {
		t.Errorf("RequestStop(9) accepted")
	}
}

func TestGatewayHTTPErrors(t *testing.T) {
	r := newFakeRunner()
	m, err := NewManager(r.config(time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	submitN(m, 1)

	// Read-only gateway: POST is 501.
	ro := httptest.NewServer(NewGateway(m, nil))
	defer ro.Close()
	resp, err := http.Post(ro.URL+"/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("read-only POST: %d, want 501", resp.StatusCode)
	}

	srv := httptest.NewServer(NewGateway(m, func(req SubmitRequest) (int, error) {
		return 0, fmt.Errorf("always rejected")
	}))
	defer srv.Close()

	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("rejected submit: %d, want 422", resp.StatusCode)
	}

	for _, path := range []string{"/jobs/abc", "/jobs/-1"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
	}

	// DELETE marks the job for retirement and returns its entry.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || e.ID != 0 {
		t.Errorf("DELETE /jobs/0: %d %+v", resp.StatusCode, e)
	}
	m.Start()
	r.step(t)
	if got := m.Jobs()[0].State; got != Stopped {
		t.Errorf("job after DELETE + tick: %v", got)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Running: "running", Converged: "converged",
		Stopped: "stopped", OverBudget: "over_budget", Failed: "failed",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
	for _, s := range []State{Converged, Stopped, OverBudget, Failed} {
		if !s.Terminal() {
			t.Errorf("%v not terminal", s)
		}
	}
	for _, s := range []State{Pending, Running} {
		if s.Terminal() {
			t.Errorf("%v terminal", s)
		}
	}
}
