package obs_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/obs"
	"specsync/internal/scheme"
)

func httpGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestStragglerAndDebugEndpoints drives the new telemetry endpoints against a
// real simulated run: /stragglerz and /debugz must serve JSON that round-trips
// into their Go types, /healthz must report uptime, and pprof only mounts
// when asked.
func TestStragglerAndDebugEndpoints(t *testing.T) {
	// BSP so the scheduler releases barriers: every release is a flight
	// event, giving /debugz real content to serve.
	wl, err := cluster.NewTiny(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	if _, err := cluster.Run(cluster.Config{
		Workload:   wl,
		Scheme:     scheme.Config{Base: scheme.BSP},
		Workers:    4,
		Seed:       11,
		MaxVirtual: 10 * time.Minute,
		Obs:        o,
	}); err != nil {
		t.Fatal(err)
	}
	h := obs.NewHandler(obs.HTTPConfig{
		Registry:   o.Registry(),
		Health:     func() obs.Health { return obs.Health{Status: "ok", Node: "driver"} },
		Cluster:    o.ClusterSnapshot,
		Stragglers: o.StragglerSnapshot,
		Flight:     o.FlightDump,
		Pprof:      true,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	code, body := httpGet(t, srv, "/stragglerz")
	if code != 200 {
		t.Fatalf("/stragglerz -> %d: %s", code, body)
	}
	var snap obs.StragglerSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stragglerz not JSON: %v", err)
	}
	if len(snap.Workers) != 4 {
		t.Errorf("straggler snapshot has %d workers, want 4", len(snap.Workers))
	}
	for _, w := range snap.Workers {
		if w.State == "" || w.Score <= 0 || w.Samples == 0 {
			t.Errorf("incomplete straggler row: %+v", w)
		}
	}

	code, body = httpGet(t, srv, "/debugz")
	if code != 200 {
		t.Fatalf("/debugz -> %d: %s", code, body)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debugz not JSON: %v", err)
	}
	if len(dump.Events) == 0 || dump.Recorded == 0 {
		t.Errorf("flight dump empty after run: recorded=%d", dump.Recorded)
	}
	var sawBarrier bool
	for _, ev := range dump.Events {
		if ev.Kind == "barrier-release" {
			sawBarrier = true
			break
		}
	}
	if !sawBarrier {
		t.Error("flight dump has no barrier-release events")
	}

	code, body = httpGet(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz -> %d", code)
	}
	var health obs.Health
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0 (auto-filled)", health.UptimeSeconds)
	}
	if health.Node != "driver" {
		t.Errorf("node = %q, want driver", health.Node)
	}

	if code, _ = httpGet(t, srv, "/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ -> %d with Pprof enabled", code)
	}

	// Unwired handler: telemetry endpoints 404, pprof stays unmounted.
	bare := httptest.NewServer(obs.NewHandler(obs.HTTPConfig{Registry: o.Registry()}))
	defer bare.Close()
	for _, path := range []string{"/stragglerz", "/debugz", "/debug/pprof/"} {
		if code, _ := httpGet(t, bare, path); code != 404 {
			t.Errorf("%s on bare handler -> %d, want 404", path, code)
		}
	}
}
