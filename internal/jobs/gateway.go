package jobs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"specsync/internal/scheme"
)

// SubmitRequest is the POST /jobs payload. The runner (cluster.Fleet) turns
// it into a full job spec; the gateway only transports it.
type SubmitRequest struct {
	// Name labels the job (defaulted by the runner if empty).
	Name string `json:"name"`
	// Workload selects the training profile ("tiny", "mf-small", ...).
	Workload string `json:"workload"`
	// Scheme is the job's synchronization scheme, in the run spec's form
	// ({"base": "SSP", "staleness": 3}).
	Scheme scheme.Config `json:"scheme"`
	// Workers is the job's cluster size.
	Workers int `json:"workers"`
	// Servers is the number of shard slots the job spreads over (0 = auto).
	Servers int `json:"servers"`
	// Seed drives the job's data order and parameter init.
	Seed int64 `json:"seed"`
	// SubmitAtSeconds delays admission until this virtual time.
	SubmitAtSeconds float64 `json:"submit_at_seconds"`
	// MaxInflightPush and ByteBudget are the job's quotas (0 = unlimited).
	MaxInflightPush int   `json:"max_inflight_push"`
	ByteBudget      int64 `json:"byte_budget"`
}

// SubmitAt converts the request's delay to a duration.
func (r SubmitRequest) SubmitAt() time.Duration {
	return time.Duration(r.SubmitAtSeconds * float64(time.Second))
}

// NewGateway builds the jobs HTTP API:
//
//	POST   /jobs      — submit a job (202 + {"id": n})
//	GET    /jobs      — list all jobs
//	GET    /jobs/{id} — one job's status
//	DELETE /jobs/{id} — request retirement (the next manager tick halts it)
//
// submit turns a SubmitRequest into a queued job; nil disables POST (501),
// for read-only surfaces.
func NewGateway(m *Manager, submit func(SubmitRequest) (int, error)) http.Handler {
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	jobID := func(r *http.Request) (int, bool) {
		id, err := strconv.Atoi(r.PathValue("id"))
		return id, err == nil && id >= 0
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if submit == nil {
			http.Error(w, "job submission not enabled on this surface", http.StatusNotImplemented)
			return
		}
		var req SubmitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		id, err := submit(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]int{"id": id})
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(r)
		if !ok {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		e, ok := m.Status(id)
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, e)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, ok := jobID(r)
		if !ok {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		if err := m.RequestStop(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		e, _ := m.Status(id)
		writeJSON(w, http.StatusOK, e)
	})
	return mux
}
