package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/metrics"
)

// Fig8Result is the headline evaluation (paper Fig. 8): loss-over-time and
// runtime-to-convergence for Original (ASP), SpecSync-Cherrypick and
// SpecSync-Adaptive on all three workloads. Fig9Result derives from the same
// runs (loss as a function of iteration count), so both are produced
// together by RunFig8.
type Fig8Result struct {
	PerWorkload []Fig8Workload
}

// Fig8Workload is one workload's three-scheme comparison.
type Fig8Workload struct {
	Workload WorkloadID
	Schemes  []string
	Loss     []*metrics.Series
	Iters    []*metrics.Series
	Converge []time.Duration
	OK       []bool
	// ItersAtConverge is the cluster-wide iteration count at convergence.
	ItersAtConverge []int64
	Aborts          []int64
	ReSyncs         []int64
}

// RunFig8 executes the nine runs behind Figs. 8 and 9.
func RunFig8(o Options) (*Fig8Result, error) {
	o = o.normalize()
	res := &Fig8Result{}
	for _, id := range AllWorkloads {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		fw := Fig8Workload{Workload: id}
		schemes := []struct {
			name string
			cfg  func() schemeConfig
		}{
			{"Original", schemeASP},
			{"SpecSync-Cherrypick", func() schemeConfig { return schemeCherry(id, wl.IterTime) }},
			{"SpecSync-Adaptive", schemeAdaptive},
		}
		for _, s := range schemes {
			run, err := runOne(o, wl, s.cfg(), nil)
			if err != nil {
				return nil, err
			}
			fw.Schemes = append(fw.Schemes, s.name)
			fw.Loss = append(fw.Loss, &run.Loss)
			fw.Iters = append(fw.Iters, &run.IterSeries)
			fw.Converge = append(fw.Converge, run.ConvergeTime)
			fw.OK = append(fw.OK, run.Converged)
			fw.ItersAtConverge = append(fw.ItersAtConverge, run.ItersAtConverge)
			fw.Aborts = append(fw.Aborts, run.Aborts)
			fw.ReSyncs = append(fw.ReSyncs, run.ReSyncs)
		}
		res.PerWorkload = append(res.PerWorkload, fw)
	}
	return res, nil
}

// Render prints the Fig. 8 view: learning curves plus runtime comparison.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 8: loss over time and runtime-to-convergence, Original vs SpecSync.")
	fmt.Fprintln(w, "       Paper: up to 2.97x (MF), 2.25x (CIFAR-10), 3x (ImageNet) speedup;")
	fmt.Fprintln(w, "       Adaptive close to Cherrypick.")
	for _, fw := range r.PerWorkload {
		fmt.Fprintf(w, "\n[%s] loss over time\n", fw.Workload)
		renderSeriesTable(w, "", "time", fw.Schemes, fw.Loss, 12)

		tb := newTable("scheme", "time-to-target", "speedup vs Original", "aborts", "resyncs")
		for i := range fw.Schemes {
			tb.addRow(fw.Schemes[i],
				fmtDur(fw.Converge[i], fw.OK[i]),
				fmtSpeedup(fw.Converge[0], fw.Converge[i], fw.OK[0], fw.OK[i]),
				fmt.Sprintf("%d", fw.Aborts[i]),
				fmt.Sprintf("%d", fw.ReSyncs[i]))
		}
		tb.render(w)
	}
}

// Fig9View renders the same runs on the iteration axis (paper Fig. 9).
func (r *Fig8Result) Fig9View(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: loss vs cumulative iteration count (same runs as Fig 8).")
	fmt.Fprintln(w, "       Paper: SpecSync needs up to 58% fewer iterations to converge.")
	for _, fw := range r.PerWorkload {
		fmt.Fprintf(w, "\n[%s] loss by iterations\n", fw.Workload)
		renderIterSeriesTable(w, "", fw.Schemes, fw.Loss, fw.Iters, 12)

		tb := newTable("scheme", "iterations-to-target", "reduction vs Original")
		base := fw.ItersAtConverge[0]
		for i := range fw.Schemes {
			red := "-"
			if fw.OK[i] && fw.OK[0] && base > 0 {
				red = fmt.Sprintf("%.0f%%", 100*(1-float64(fw.ItersAtConverge[i])/float64(base)))
			}
			iters := "-"
			if fw.OK[i] {
				iters = fmt.Sprintf("%d", fw.ItersAtConverge[i])
			}
			tb.addRow(fw.Schemes[i], iters, red)
		}
		tb.render(w)
	}
}
