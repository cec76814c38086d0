package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is the /healthz payload.
type Health struct {
	Status          string  `json:"status"` // "ok" or a short problem string
	Node            string  `json:"node,omitempty"`
	UptimeSeconds   float64 `json:"uptime_seconds"` // filled by the handler when zero
	Generation      int64   `json:"generation,omitempty"`
	Jobs            int     `json:"jobs,omitempty"`
	MembershipEpoch int64   `json:"membership_epoch"`
	Epoch           int64   `json:"epoch,omitempty"`
	Iterations      int64   `json:"iterations,omitempty"`
	Version         int64   `json:"version,omitempty"` // server shard parameter version

	// Replication view: the serving scheduler's role and term (set when
	// scheduler replication is on; Leader names the serving incarnation).
	Role   string `json:"role,omitempty"`
	Term   int64  `json:"term,omitempty"`
	Leader string `json:"leader,omitempty"`
}

// WorkerState is one worker's row in a ClusterSnapshot.
type WorkerState struct {
	Index           int     `json:"index"`
	Alive           bool    `json:"alive"`
	PushRate        float64 `json:"push_rate"` // pushes/sec over the scheduler's history window
	AbortRate       float64 `json:"abort_rate"`
	IterSpanSeconds float64 `json:"iter_span_seconds"` // EWMA iteration span estimate
	WindowArmed     bool    `json:"window_armed"`
	WindowCount     int     `json:"window_count"`
	WindowThreshold int     `json:"window_threshold"`

	// Straggler-detector decoration (empty until the worker has been scored).
	StragglerScore float64 `json:"straggler_score,omitempty"`
	Straggler      string  `json:"straggler,omitempty"` // "ok" | "transient" | "sustained"
}

// ClusterSnapshot is the scheduler-aggregated /clusterz payload: push-rate
// dynamics, the current speculation hyperparameters, and per-worker
// spec-window state.
type ClusterSnapshot struct {
	At               time.Time     `json:"at"`
	Epoch            int64         `json:"epoch"`
	MembershipEpoch  int64         `json:"membership_epoch"`
	SpecEnabled      bool          `json:"spec_enabled"`
	AbortTimeSeconds float64       `json:"abort_time_seconds"`
	AliveWorkers     int           `json:"alive_workers"`
	Workers          []WorkerState `json:"workers"`

	// Scheduler fault-tolerance view: which incarnation is serving, whether
	// it booted from a checkpoint, and how many worker state reports the
	// post-restart rebuild has consumed.
	Generation     int64 `json:"generation"`
	RestoredFromCk bool  `json:"restored_from_checkpoint,omitempty"`
	StateReports   int64 `json:"state_reports,omitempty"`

	// Scheme view: the active gate. On runs with a gate policy
	// (sync-switch, abs, meta) the scheme epoch counts applied switches and
	// the last-switch fields explain the most recent one.
	Scheme           string    `json:"scheme,omitempty"`
	SchemeEpoch      int64     `json:"scheme_epoch,omitempty"`
	SchemeSwitches   int64     `json:"scheme_switches,omitempty"`
	LastSwitchReason string    `json:"last_switch_reason,omitempty"`
	LastSwitchAt     time.Time `json:"last_switch_at,omitempty"`

	// Jobs is the multi-tenant fleet listing (nil for single-job runs). The
	// fleet-level snapshot carries one entry per job, each embedding that
	// job's own scheduler view.
	Jobs []JobEntry `json:"jobs,omitempty"`
}

// JobEntry is one job's row in the fleet /clusterz listing and the payload
// served by the jobs gateway (GET /jobs, GET /jobs/{id}).
type JobEntry struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	State      string  `json:"state"`
	Scheme     string  `json:"scheme"`
	Workers    int     `json:"workers"`
	Error      string  `json:"error,omitempty"`
	Iterations int64   `json:"iterations"`
	Pushes     int64   `json:"pushes"`
	Loss       float64 `json:"loss"`
	Converged  bool    `json:"converged"`

	SubmitAtSeconds   float64 `json:"submit_at_seconds"`
	AdmittedAtSeconds float64 `json:"admitted_at_seconds,omitempty"`
	FinishedAtSeconds float64 `json:"finished_at_seconds,omitempty"`

	// Quota accounting: bytes on wire vs the job's byte budget, and
	// in-flight push gating (0 budget / 0 max = unlimited).
	BytesOnWire     int64 `json:"bytes_on_wire"`
	ByteBudget      int64 `json:"byte_budget,omitempty"`
	MaxInflightPush int   `json:"max_inflight_push,omitempty"`
	InflightPushes  int64 `json:"inflight_pushes,omitempty"`
	ThrottledPushes int64 `json:"throttled_pushes,omitempty"`

	// Cluster is this job's own scheduler view (nil until first published).
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`
}

// HTTPConfig assembles the exposition endpoints.
type HTTPConfig struct {
	Registry *Registry
	// Health supplies the /healthz payload; nil serves a static "ok".
	// UptimeSeconds is filled in by the handler when the supplier leaves it
	// zero (measured from handler construction).
	Health func() Health
	// Cluster supplies /clusterz; nil (or ok=false) yields 404 — only the
	// scheduler aggregates a cluster view.
	Cluster func() (ClusterSnapshot, bool)
	// Stragglers supplies /stragglerz; nil (or ok=false) yields 404.
	// Typically Obs.StragglerSnapshot.
	Stragglers func() (StragglerSnapshot, bool)
	// Flight supplies /debugz (the control-plane flight recorder dump); nil
	// yields 404. Typically Obs.FlightDump.
	Flight func() FlightDump
	// Pprof mounts net/http/pprof under /debug/pprof/ — off by default
	// because profiling endpoints don't belong on every exposed port.
	Pprof bool
}

// NewHandler builds the /metrics, /healthz, /clusterz, /stragglerz, and
// /debugz handler (plus /debug/pprof/ when enabled).
func NewHandler(cfg HTTPConfig) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		h := Health{Status: "ok"}
		if cfg.Health != nil {
			h = cfg.Health()
		}
		if h.UptimeSeconds == 0 {
			h.UptimeSeconds = time.Since(start).Seconds()
		}
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/clusterz", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Cluster == nil {
			http.Error(w, "no cluster view on this node (ask the scheduler)", http.StatusNotFound)
			return
		}
		snap, ok := cfg.Cluster()
		if !ok {
			http.Error(w, "cluster view not published yet", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/stragglerz", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Stragglers == nil {
			http.Error(w, "no straggler detector on this node", http.StatusNotFound)
			return
		}
		snap, ok := cfg.Stragglers()
		if !ok {
			http.Error(w, "no straggler observations yet", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/debugz", func(w http.ResponseWriter, _ *http.Request) {
		if cfg.Flight == nil {
			http.Error(w, "no flight recorder on this node", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Flight())
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Serve binds addr (":0" picks a free port) and serves h in the background.
// It returns the server for shutdown and the bound address for logs/tests.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
