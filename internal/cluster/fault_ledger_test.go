package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"specsync/internal/obs"
)

// ledgerFamilies maps each family the fault ledger registers (obs.Faults)
// to the Result number it must equal.
var ledgerFamilies = map[string]func(f *obs.FaultTotals) int64{
	"specsync_crashes_total":                     func(f *obs.FaultTotals) int64 { return f.Crashes },
	"specsync_restarts_total":                    func(f *obs.FaultTotals) int64 { return f.Restarts },
	"specsync_restores_total":                    func(f *obs.FaultTotals) int64 { return f.Restores },
	"specsync_checkpoints_total":                 func(f *obs.FaultTotals) int64 { return f.Checkpoints },
	"specsync_lost_pushes_total":                 func(f *obs.FaultTotals) int64 { return f.LostPushes },
	"specsync_replica_promotions_total":          func(f *obs.FaultTotals) int64 { return f.Promotions },
	"specsync_scheduler_elections_total":         func(f *obs.FaultTotals) int64 { return f.Elections },
	"specsync_scheduler_crashes_total":           func(f *obs.FaultTotals) int64 { return f.SchedulerCrashes },
	"specsync_scheduler_restores_total":          func(f *obs.FaultTotals) int64 { return f.SchedulerRestores },
	"specsync_scheduler_snapshots_shipped_total": func(f *obs.FaultTotals) int64 { return f.SnapshotsShipped },
	"specsync_fault_dropped_messages_total":      func(f *obs.FaultTotals) int64 { return f.Drops },
	"specsync_fault_duplicated_messages_total":   func(f *obs.FaultTotals) int64 { return f.Duplicates },
	"specsync_fault_delayed_messages_total":      func(f *obs.FaultTotals) int64 { return f.Delays },
}

// schedulerFamilies are the scheduler's own fault counters, registered in
// every run.
var schedulerFamilies = map[string]func(f *obs.FaultTotals) int64{
	"specsync_scheduler_restarts_total":      func(f *obs.FaultTotals) int64 { return f.SchedulerRestarts },
	"specsync_evictions_total":               func(f *obs.FaultTotals) int64 { return f.Evictions },
	"specsync_readmissions_total":            func(f *obs.FaultTotals) int64 { return f.Readmissions },
	"specsync_scheduler_state_reports_total": func(f *obs.FaultTotals) int64 { return f.StateReports },
}

// runSpecExposition runs a committed spec and returns its Result, the
// unlabelled series of its /metrics text and its observability instance.
func runSpecExposition(t *testing.T, name string) (*Result, map[string]int64, *obs.Obs) {
	t.Helper()
	cfg, err := LoadSpec(filepath.Join("..", "..", "examples", "specs", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{})
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o.Registry().WritePrometheus(&buf)
	series := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			series[name] = n
		}
	}
	return res, series, o
}

// TestFaultLedgerMatchesResult: on every committed fault spec, each fault,
// recovery and failover counter /metrics exports equals the number the
// specsync summary prints, because both read the one registry; a restart is
// a scheduler process coming back, never an election; and a fault-free run
// exports no ledger family.
func TestFaultLedgerMatchesResult(t *testing.T) {
	for _, tc := range []struct {
		spec                string
		restarts, elections int64
	}{
		{"chaos", 1, 0},
		{"churn", 1, 0},
		{"sched-kill", 0, 1},
		{"server-kill", 0, 0},
		{"combined-kill", 0, 1},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			res, series, _ := runSpecExposition(t, tc.spec)
			if res.Faults == nil {
				t.Fatal("Result.Faults is nil for a fault run")
			}
			for _, fams := range []map[string]func(*obs.FaultTotals) int64{ledgerFamilies, schedulerFamilies} {
				for name, field := range fams {
					got, ok := series[name]
					if !ok {
						t.Errorf("/metrics lacks %s", name)
					} else if want := field(res.Faults); got != want {
						t.Errorf("%s = %d in /metrics, %d in the Result", name, got, want)
					}
				}
			}
			if rs := res.Replication; rs != nil {
				if rs.Elections != res.Faults.Elections || rs.Promotions != res.Faults.Promotions ||
					rs.SnapshotsShipped != res.Faults.SnapshotsShipped {
					t.Errorf("replication stats %+v disagree with the ledger %+v", *rs, *res.Faults)
				}
			}
			if got := series["specsync_scheduler_restarts_total"]; got != tc.restarts {
				t.Errorf("specsync_scheduler_restarts_total = %d, want %d", got, tc.restarts)
			}
			if got := series["specsync_scheduler_elections_total"]; got != tc.elections {
				t.Errorf("specsync_scheduler_elections_total = %d, want %d", got, tc.elections)
			}
		})
	}

	t.Run("tiny-adaptive", func(t *testing.T) {
		res, series, _ := runSpecExposition(t, "tiny-adaptive")
		if res.Faults != nil {
			t.Errorf("Result.Faults = %+v for a fault-free run, want nil", *res.Faults)
		}
		for name := range ledgerFamilies {
			if _, ok := series[name]; ok {
				t.Errorf("fault-free run exports %s", name)
			}
		}
	})
}

// TestElectionIsOneDebugzEvent: the flight recorder /debugz serves shows an
// elected standby as one "leader-elected" event and no "scheduler-restart",
// and a scheduler process restarted from its checkpoint the other way round.
func TestElectionIsOneDebugzEvent(t *testing.T) {
	for _, tc := range []struct {
		spec               string
		elected, restarted int
	}{
		{"sched-kill", 1, 0},
		{"chaos", 0, 1},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			_, _, o := runSpecExposition(t, tc.spec)
			rec := httptest.NewRecorder()
			obs.NewHandler(obs.HTTPConfig{Flight: o.FlightDump}).ServeHTTP(rec, httptest.NewRequest("GET", "/debugz", nil))
			var dump obs.FlightDump
			if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
				t.Fatalf("/debugz: %v: %s", err, rec.Body.Bytes())
			}
			if n := len(dump.Filter("leader-elected")); n != tc.elected {
				t.Errorf("%d leader-elected events, want %d", n, tc.elected)
			}
			if n := len(dump.Filter("scheduler-restart")); n != tc.restarted {
				t.Errorf("%d scheduler-restart events, want %d", n, tc.restarted)
			}
		})
	}
}
