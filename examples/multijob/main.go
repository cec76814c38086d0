// Multi-tenant quickstart: two training jobs with different synchronization
// schemes share one parameter-server fleet, and a third arrives over the
// jobs HTTP gateway before the run starts. Prints the per-job outcomes, the
// byte-accounting invariant, and the gateway's job listing.
//
//	go run ./examples/multijob
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/jobs"
	"specsync/internal/scheme"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multijob:", err)
		os.Exit(1)
	}
}

func run() error {
	wlA, err := cluster.NewTiny(4, 7)
	if err != nil {
		return err
	}
	wlB, err := cluster.NewTiny(4, 11)
	if err != nil {
		return err
	}

	// Two jobs up front: classic BSP next to SpecSync-Adaptive, same fleet.
	fleet, err := cluster.NewFleet(cluster.FleetConfig{
		Jobs: []cluster.JobSpec{
			{Name: "bsp", Workload: wlA, Scheme: scheme.Config{Base: scheme.BSP},
				Workers: 4, Seed: 7},
			{Name: "spec", Workload: wlB, Scheme: scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
				Workers: 4, Seed: 11},
		},
		Seed:       42,
		MaxVirtual: 10 * time.Minute,
	})
	if err != nil {
		return err
	}

	// The jobs gateway is plain net/http: POST /jobs, GET /jobs[/{id}],
	// DELETE /jobs/{id}. Submit a third job over it (workload by name, scheme
	// in the run spec's form) — it is admitted at the fleet's first control
	// tick.
	gw := httptest.NewServer(jobs.NewGateway(fleet.Manager(), fleet.SubmitRequest))
	defer gw.Close()
	resp, err := http.Post(gw.URL+"/jobs", "application/json",
		strings.NewReader(`{"name":"posted","workload":"tiny","scheme":{"base":"SSP","staleness":3},"workers":3,"seed":13,"max_inflight_push":2}`))
	if err != nil {
		return err
	}
	var accepted struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Printf("gateway: POST /jobs -> job %d\n\n", accepted.ID)

	res, err := fleet.Run()
	if err != nil {
		return err
	}

	var sum int64
	for _, j := range res.Jobs {
		fmt.Printf("job %d %-8s %-24s state=%-10s converged=%-5v time=%-8s pushes=%-6d throttled=%-4d bytes=%d\n",
			j.ID, j.Name, j.SchemeName, j.State, j.Converged,
			(j.ConvergeTime - j.AdmittedAt).Round(time.Second), j.Pushes, j.ThrottledPushes,
			j.Transfer.TotalBytes())
		sum += j.Transfer.TotalBytes()
	}
	fmt.Printf("\naccounting: per-job sum %d == fleet total %d: %v\n",
		sum, res.Transfer.TotalBytes(), sum == res.Transfer.TotalBytes())
	fmt.Printf("control ticks %d, %v simulated\n\n", res.Ticks, res.Elapsed.Round(time.Second))

	// The gateway keeps serving after the run: listings reflect final state.
	resp, err = http.Get(gw.URL + "/jobs/" + fmt.Sprint(accepted.ID))
	if err != nil {
		return err
	}
	var entry struct {
		Name  string  `json:"name"`
		State string  `json:"state"`
		Loss  float64 `json:"loss"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Printf("gateway: GET /jobs/%d -> %s %s loss=%.4f\n", accepted.ID, entry.Name, entry.State, entry.Loss)
	return nil
}
