package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/scheme"
)

// Fig5Result holds the naïve-waiting study (paper Fig. 5): learning curves
// for several fixed pull delays on the CIFAR-like and MF workloads.
type Fig5Result struct {
	PerWorkload []Fig5Workload
}

// Fig5Workload is one workload's delay comparison.
type Fig5Workload struct {
	Workload WorkloadID
	Delays   []time.Duration
	Loss     []*metrics.Series
	Converge []time.Duration
	OK       []bool
}

// Fig5 runs ASP with naïve waiting at the paper's delays (0 = Original,
// then 1 s, 3 s, 5 s scaled to the workload's iteration time so that the
// shape — small delay helps, large delay hurts — is preserved).
func Fig5(o Options) (*Fig5Result, error) {
	o = o.normalize()
	res := &Fig5Result{}
	for _, id := range []WorkloadID{WorkloadCIFAR, WorkloadMF} {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		// The paper's CIFAR delays 1s/3s/5s are ~7%/21%/36% of the 14 s
		// iteration; use the same fractions everywhere.
		delays := []time.Duration{
			0,
			wl.IterTime * 7 / 100,
			wl.IterTime * 21 / 100,
			wl.IterTime * 36 / 100,
		}
		fw := Fig5Workload{Workload: id, Delays: delays}
		for _, d := range delays {
			sc := scheme.Config{Base: scheme.ASP, NaiveWait: d}
			run, err := runOne(o, wl, sc, nil)
			if err != nil {
				return nil, err
			}
			fw.Loss = append(fw.Loss, &run.Loss)
			fw.Converge = append(fw.Converge, run.ConvergeTime)
			fw.OK = append(fw.OK, run.Converged)
		}
		res.PerWorkload = append(res.PerWorkload, fw)
	}
	return res, nil
}

// Render prints the learning curves and convergence times.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 5: naive waiting — learning curves for fixed pull delays (fractions of the")
	fmt.Fprintln(w, "       iteration time matching the paper's 1s/3s/5s on 14s iterations).")
	fmt.Fprintln(w, "       Paper shape: a small delay helps; larger delays yield little benefit or hurt.")
	for _, fw := range r.PerWorkload {
		names := make([]string, len(fw.Delays))
		for i, d := range fw.Delays {
			if d == 0 {
				names[i] = "original"
			} else {
				names[i] = fmt.Sprintf("wait %v", d.Round(time.Millisecond))
			}
		}
		fmt.Fprintf(w, "\n[%s] loss over time\n", fw.Workload)
		renderSeriesTable(w, "", "time", names, fw.Loss, 12)
		tb := newTable("delay", "time-to-target")
		for i := range fw.Delays {
			tb.addRow(names[i], fmtDur(fw.Converge[i], fw.OK[i]))
		}
		tb.render(w)
	}
}
