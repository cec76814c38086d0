package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/trace"
)

// Fig3Result holds the pushes-after-pull distributions (paper Fig. 3): for
// each interval after a pull, the box statistics of how many peer pushes
// landed in it, measured under plain ASP.
type Fig3Result struct {
	PerWorkload []Fig3Workload
}

// Fig3Workload is the PAP analysis of one workload.
type Fig3Workload struct {
	Workload WorkloadID
	Interval time.Duration
	Boxes    []metrics.Box // one per interval bucket
}

// Fig3 runs ASP training on the CIFAR-like and MF workloads (the two the
// paper plots) and analyzes the pushes-after-pull distribution.
func Fig3(o Options) (*Fig3Result, error) {
	o = o.normalize()
	res := &Fig3Result{}
	for _, id := range []WorkloadID{WorkloadCIFAR, WorkloadMF} {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		run, err := runOne(o, wl, schemeASP(), func(c *clusterConfig) {
			c.KeepTrace = true
			// The distribution stabilizes quickly; a bounded slice of
			// training is enough and keeps the trace small.
			c.MaxVirtual = 60 * wl.IterTime
		})
		if err != nil {
			return nil, err
		}
		// The paper buckets at 1-second granularity over the iteration;
		// scale the bucket to the workload so every workload gets ~10
		// buckets across an iteration.
		interval := time.Second
		buckets := int(wl.IterTime / interval)
		if buckets > 14 {
			buckets = 14
		}
		if buckets < 3 {
			interval = wl.IterTime / 3
			buckets = 3
		}
		pap := run.Trace.PAP(trace.PAPConfig{Interval: interval, Buckets: buckets})
		fw := Fig3Workload{Workload: id, Interval: interval}
		for _, samples := range pap.PerBucket {
			fw.Boxes = append(fw.Boxes, metrics.BoxOf(samples))
		}
		res.PerWorkload = append(res.PerWorkload, fw)
	}
	return res, nil
}

// Render prints one box-stat table per workload.
func (r *Fig3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 3: distribution of pushes-after-pull (PAP) per interval after a pull, under ASP.")
	fmt.Fprintln(w, "       Paper observation: approximately uniform arrivals per interval; the first two")
	fmt.Fprintln(w, "       1-second boxes on CIFAR-10 have median > 6 (40 workers, 14 s iterations).")
	for _, fw := range r.PerWorkload {
		fmt.Fprintf(w, "\n[%s] interval width %v\n", fw.Workload, fw.Interval)
		tb := newTable("interval", "p5", "p25", "median", "p75", "p95", "n")
		for k, b := range fw.Boxes {
			lo := time.Duration(k) * fw.Interval
			hi := lo + fw.Interval
			tb.addRow(fmt.Sprintf("%v-%v", lo.Round(time.Millisecond), hi.Round(time.Millisecond)),
				fmt.Sprintf("%.1f", b.P5), fmt.Sprintf("%.1f", b.P25), fmt.Sprintf("%.1f", b.P50),
				fmt.Sprintf("%.1f", b.P75), fmt.Sprintf("%.1f", b.P95), fmt.Sprintf("%d", b.N))
		}
		tb.render(w)
	}
}
