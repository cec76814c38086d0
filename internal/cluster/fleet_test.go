package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specsync/internal/jobs"
	"specsync/internal/obs"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

func fleetDigest(t *testing.T, res *FleetResult) (string, int) {
	t.Helper()
	evs := res.Trace.Events()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), len(evs)
}

// TestFleetOneJobGoldenParity pins the default-tenant design: a one-job fleet
// runs job 0 in the legacy node namespace with un-enveloped traffic, so it
// must replay the legacy cluster.Run byte for byte — same golden trace digest,
// same event count, same bytes on wire — through the real Fleet code path.
func TestFleetOneJobGoldenParity(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	res, err := RunFleet(FleetConfig{
		Jobs: []JobSpec{{
			Workload: wl,
			Scheme:   scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
			Workers:  4,
			Seed:     7,
		}},
		Seed:       7,
		MaxVirtual: 2 * time.Minute,
		KeepTrace:  true,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	digest, events := fleetDigest(t, res)
	if events != goldenTinyEvents {
		t.Errorf("events = %d, golden %d", events, goldenTinyEvents)
	}
	if got := res.Transfer.TotalBytes(); got != goldenTinyBytes {
		t.Errorf("bytes on wire = %d, golden %d", got, goldenTinyBytes)
	}
	if digest != goldenTinyDigest {
		t.Errorf("trace digest = %s, golden %s", digest, goldenTinyDigest)
	}
	if len(res.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(res.Jobs))
	}
	j := res.Jobs[0]
	if j.State != jobs.Converged || !j.Converged {
		t.Errorf("job state = %v, want converged", j.State)
	}
	if j.Transfer.TotalBytes() != res.Transfer.TotalBytes() {
		t.Errorf("one-job accounting: job bytes %d != fleet bytes %d",
			j.Transfer.TotalBytes(), res.Transfer.TotalBytes())
	}
}

// mixedFleetConfig is the acceptance-criteria fleet: three concurrent jobs on
// mixed schemes (BSP, SSP, SpecSync-adaptive), one submitted mid-run.
func mixedFleetConfig(keepTrace bool) (FleetConfig, error) {
	wl0, err := NewTiny(4, 7)
	if err != nil {
		return FleetConfig{}, err
	}
	wl1, err := NewTiny(3, 11)
	if err != nil {
		return FleetConfig{}, err
	}
	wl2, err := NewTiny(4, 13)
	if err != nil {
		return FleetConfig{}, err
	}
	return FleetConfig{
		Jobs: []JobSpec{
			{Name: "bsp", Workload: wl0, Scheme: scheme.Config{Base: scheme.BSP}, Workers: 4, Seed: 7},
			{Name: "ssp", Workload: wl1, Scheme: scheme.Config{Base: scheme.SSP, Staleness: 3}, Workers: 3, Seed: 11},
			{Name: "spec", Workload: wl2, Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
				Workers: 4, Seed: 13, SubmitAt: 5 * time.Second},
		},
		Seed:       42,
		MaxVirtual: 10 * time.Minute,
		KeepTrace:  keepTrace,
	}, nil
}

// TestFleetMixedJobs runs the acceptance scenario: three concurrent jobs with
// different schemes all converge, the run is deterministic (double-run trace
// digest match), and per-job byte accounting sums exactly to the fleet total.
func TestFleetMixedJobs(t *testing.T) {
	run := func() (*FleetResult, string) {
		cfg, err := mixedFleetConfig(true)
		if err != nil {
			t.Fatalf("config: %v", err)
		}
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatalf("fleet: %v", err)
		}
		d, _ := fleetDigest(t, res)
		return res, d
	}
	res, digest := run()
	_, digest2 := run()
	if digest != digest2 {
		t.Errorf("multi-job run not deterministic: digest %s != %s", digest, digest2)
	}

	if len(res.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(res.Jobs))
	}
	var jobBytes int64
	for _, j := range res.Jobs {
		if j.State != jobs.Converged {
			t.Errorf("job %d (%s, %s): state %v, want converged (err %q)", j.ID, j.Name, j.SchemeName, j.State, j.Err)
		}
		if j.TotalIters == 0 || j.Pushes == 0 {
			t.Errorf("job %d (%s): no progress (iters %d, pushes %d)", j.ID, j.Name, j.TotalIters, j.Pushes)
		}
		jobBytes += j.Transfer.TotalBytes()
	}
	if fleet := res.Transfer.TotalBytes(); jobBytes != fleet {
		t.Errorf("accounting: sum of per-job bytes %d != fleet bytes %d", jobBytes, fleet)
	}
	if res.Jobs[2].AdmittedAt < 5*time.Second {
		t.Errorf("job 2 admitted at %v, before its SubmitAt", res.Jobs[2].AdmittedAt)
	}

	// Isolation: each job converges within a loose multiple of its standalone
	// baseline (shared substrate, but no cross-job interference beyond the
	// network model).
	for i, j := range res.Jobs {
		cfg, err := mixedFleetConfig(false)
		if err != nil {
			t.Fatalf("config: %v", err)
		}
		spec := cfg.Jobs[i]
		base, err := Run(Config{
			Workload:   spec.Workload,
			Scheme:     spec.Scheme,
			Workers:    spec.Workers,
			Seed:       spec.Seed,
			MaxVirtual: cfg.MaxVirtual,
		})
		if err != nil {
			t.Fatalf("baseline %s: %v", j.Name, err)
		}
		if !base.Converged {
			t.Fatalf("baseline %s did not converge", j.Name)
		}
		got := j.ConvergeTime - j.AdmittedAt
		if got > 3*base.ConvergeTime {
			t.Errorf("job %s: fleet converge %v vs standalone %v — isolation epsilon exceeded", j.Name, got, base.ConvergeTime)
		}
	}

	// The fleet routing table carries one namespaced block per job.
	if res.Routing == nil {
		t.Fatal("no fleet routing table")
	}
	if err := res.Routing.Validate(); err != nil {
		t.Errorf("fleet routing table invalid: %v", err)
	}
	if got := len(res.Routing.Jobs()); got != 3 {
		t.Errorf("routing table covers %d jobs, want 3", got)
	}
}

// TestFleetQuota checks that a push-gated job throttles but still converges,
// and that a byte-budgeted job is retired OverBudget.
func TestFleetQuota(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	wl2, err := NewTiny(4, 9)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	res, err := RunFleet(FleetConfig{
		Jobs: []JobSpec{
			{Name: "gated", Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 7,
				MaxInflightPush: 1},
			{Name: "capped", Workload: wl2, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 9,
				ByteBudget: 20_000},
		},
		Seed:       1,
		MaxVirtual: 10 * time.Minute,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	gated, capped := res.Jobs[0], res.Jobs[1]
	if gated.State != jobs.Converged {
		t.Errorf("gated job: state %v, want converged", gated.State)
	}
	if gated.ThrottledPushes == 0 {
		t.Errorf("gated job: no throttled pushes despite MaxInflightPush=1")
	}
	if capped.State != jobs.OverBudget {
		t.Errorf("capped job: state %v, want over_budget", capped.State)
	}
	if capped.Transfer.TotalBytes() <= 20_000 {
		t.Errorf("capped job: retired at %d bytes, under its budget", capped.Transfer.TotalBytes())
	}
}

// TestFleetGateway drives the jobs HTTP API end to end: submit via POST
// before the run, then read status and listings after it completes.
func TestFleetGateway(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Jobs: []JobSpec{func() JobSpec {
			wl, err := NewTiny(4, 7)
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			return JobSpec{Name: "seeded", Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 7}
		}()},
		Seed:       3,
		MaxVirtual: 10 * time.Minute,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	gw := jobs.NewGateway(f.Manager(), f.SubmitRequest)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	// Submit a second job over HTTP (name-resolved workload, spec-form scheme).
	body := `{"name":"posted","workload":"tiny","scheme":{"base":"SSP","staleness":3},"workers":3,"seed":11}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	var accepted struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if accepted.ID != 1 {
		t.Fatalf("posted job id = %d, want 1", accepted.ID)
	}

	// Bad submissions are rejected before they reach the queue: a body that
	// does not decode (an unknown scheme name, a misspelled key) with 400,
	// a job that fails validation with 422.
	for bad, want := range map[string]int{
		`{"workload":"tiny","scheme":{"base":"nope"},"workers":2}`: http.StatusBadRequest,
		`{"workload":"tiny","scheme":{"base":"SSP"},"wrokers":2}`:  http.StatusBadRequest,
		`{"workload":"nope","scheme":{"base":"SSP"},"workers":2}`:  http.StatusUnprocessableEntity,
		`{"workload":"tiny","scheme":{},"workers":2}`:              http.StatusUnprocessableEntity,
		`{"workload":"tiny","scheme":{"base":"SSP"},"workers":0}`:  http.StatusUnprocessableEntity,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("bad submission %s: status %d, want %d", bad, resp.StatusCode, want)
		}
	}

	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.State != jobs.Converged {
			t.Errorf("job %d (%s): state %v, want converged", j.ID, j.Name, j.State)
		}
	}

	// Status and listing reflect the finished run.
	resp, err = http.Get(srv.URL + "/jobs/1")
	if err != nil {
		t.Fatalf("GET /jobs/1: %v", err)
	}
	var entry obs.JobEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if entry.Name != "posted" || entry.State != "converged" || !entry.Converged {
		t.Errorf("GET /jobs/1 = %+v, want converged job 'posted'", entry)
	}
	if entry.BytesOnWire == 0 || entry.Pushes == 0 {
		t.Errorf("GET /jobs/1: missing accounting (%d bytes, %d pushes)", entry.BytesOnWire, entry.Pushes)
	}

	resp, err = http.Get(srv.URL + "/jobs/9")
	if err != nil {
		t.Fatalf("GET /jobs/9: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/9: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetSeedResolution pins the gateway seed contract: a zero request
// seed resolves once to fleet seed + job ID (so the workload's data order
// and the job's runtime seed agree), and distinct seedless submissions get
// distinct seeds.
func TestFleetSeedResolution(t *testing.T) {
	ssp := scheme.Config{Base: scheme.SSP, Staleness: 3}
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	f, err := NewFleet(FleetConfig{
		Jobs:       []JobSpec{{Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 7}},
		Seed:       21,
		MaxVirtual: time.Minute,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	id1, err := f.SubmitRequest(jobs.SubmitRequest{Workload: "tiny", Scheme: ssp, Workers: 2})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	id2, err := f.SubmitRequest(jobs.SubmitRequest{Workload: "tiny", Scheme: ssp, Workers: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	all := f.Manager().Jobs()
	for _, id := range []int{id1, id2} {
		fj := all[id].Payload.(*fleetJob)
		if want := int64(21 + id); fj.spec.Seed != want {
			t.Errorf("job %d seed = %d, want fleet seed + id = %d", id, fj.spec.Seed, want)
		}
	}
	// An explicit seed passes through untouched.
	id3, err := f.SubmitRequest(jobs.SubmitRequest{Workload: "tiny", Scheme: ssp, Workers: 2, Seed: 99})
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	if got := f.Manager().Jobs()[id3].Payload.(*fleetJob).spec.Seed; got != 99 {
		t.Errorf("explicit seed = %d, want 99", got)
	}
}

// TestFleetClusterz checks the /clusterz fleet snapshot: one JobEntry per
// job, per-job byte accounting summing to the fleet total, and embedded
// per-job scheduler views.
func TestFleetClusterz(t *testing.T) {
	cfg, err := mixedFleetConfig(false)
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	o := obs.New(obs.Options{})
	cfg.Obs = o
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	snap, ok := o.ClusterSnapshot()
	if !ok {
		t.Fatal("no fleet cluster snapshot published")
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("snapshot jobs = %d, want 3", len(snap.Jobs))
	}
	var snapBytes int64
	for _, e := range snap.Jobs {
		if e.State != "converged" {
			t.Errorf("snapshot job %d (%s): state %q", e.ID, e.Name, e.State)
		}
		snapBytes += e.BytesOnWire
		if e.Cluster == nil {
			t.Errorf("snapshot job %d (%s): no embedded per-job cluster view", e.ID, e.Name)
		}
	}
	if fleet := res.Transfer.TotalBytes(); snapBytes != fleet {
		t.Errorf("/clusterz accounting: sum of job bytes %d != fleet bytes %d", snapBytes, fleet)
	}
}

// TestFleetStopRequest retires a job via the manager mid-run.
func TestFleetStopRequest(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var f *Fleet
	cfg := FleetConfig{
		Jobs: []JobSpec{{Name: "doomed", Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4, Seed: 7,
			ConsecutiveBelow: 1 << 30}}, // never converges on its own
		Seed:       5,
		MaxVirtual: 10 * time.Minute,
		OnStart: func(fl *Fleet) {
			f = fl
			fl.sim.Schedule(3*time.Second, func() {
				if err := fl.Manager().RequestStop(0); err != nil {
					t.Errorf("RequestStop: %v", err)
				}
			})
		},
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	_ = f
	j := res.Jobs[0]
	if j.State != jobs.Stopped {
		t.Errorf("job state = %v, want stopped", j.State)
	}
	if j.FinishedAt < 3*time.Second || j.FinishedAt > 10*time.Second {
		t.Errorf("job stopped at %v, want shortly after the 3s request", j.FinishedAt)
	}
	if j.TotalIters == 0 {
		t.Errorf("stopped job shows no progress")
	}
}

// TestFleetValidation exercises spec rejection.
func TestFleetValidation(t *testing.T) {
	wl, err := NewTiny(4, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	good := JobSpec{Workload: wl, Scheme: scheme.Config{Base: scheme.ASP}, Workers: 4}
	cases := []struct {
		name   string
		mutate func(*FleetConfig)
	}{
		{"no jobs", func(c *FleetConfig) { c.Jobs = nil }},
		{"no deadline", func(c *FleetConfig) { c.MaxVirtual = 0 }},
		{"decentralized", func(c *FleetConfig) {
			c.Jobs[0].Scheme.Decentralized = true
			c.Jobs[0].Scheme.Spec = scheme.SpecAdaptive
		}},
		{"zero workers", func(c *FleetConfig) { c.Jobs[0].Workers = 0 }},
		{"bad speeds", func(c *FleetConfig) { c.Jobs[0].Speeds = []float64{1} }},
		{"negative submit", func(c *FleetConfig) { c.Jobs[0].SubmitAt = -time.Second }},
		{"too many slots", func(c *FleetConfig) { c.Jobs[0].Servers = 99; c.Servers = 4 }},
	}
	for _, tc := range cases {
		cfg := FleetConfig{Jobs: []JobSpec{good}, MaxVirtual: time.Minute}
		tc.mutate(&cfg)
		if _, err := NewFleet(cfg); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}
