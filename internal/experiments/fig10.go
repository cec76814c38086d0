package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/metrics"
)

// Fig10Result is the heterogeneity study (paper Fig. 10): CIFAR-like
// training with Original vs SpecSync-Adaptive on the homogeneous Cluster 1
// and the 4-instance-type heterogeneous Cluster 2.
type Fig10Result struct {
	Names    []string
	Loss     []*metrics.Series
	Converge []time.Duration
	OK       []bool
}

// Fig10 runs the four configurations.
func Fig10(o Options) (*Fig10Result, error) {
	o = o.normalize()
	wl, err := o.workload(WorkloadCIFAR)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	cases := []struct {
		name   string
		sc     schemeConfig
		speeds []float64
	}{
		{"Original/homogeneous", schemeASP(), nil},
		{"Original/heterogeneous", schemeASP(), cluster.InstanceSpeeds(o.Workers)},
		{"Adaptive/homogeneous", schemeAdaptive(), nil},
		{"Adaptive/heterogeneous", schemeAdaptive(), cluster.InstanceSpeeds(o.Workers)},
	}
	for _, c := range cases {
		speeds := c.speeds
		run, err := runOne(o, wl, c.sc, func(cc *clusterConfig) { cc.Speeds = speeds })
		if err != nil {
			return nil, err
		}
		res.Names = append(res.Names, c.name)
		res.Loss = append(res.Loss, &run.Loss)
		res.Converge = append(res.Converge, run.ConvergeTime)
		res.OK = append(res.OK, run.Converged)
	}
	return res, nil
}

// Render prints the four learning curves and convergence times.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 10: heterogeneity (CIFAR-like; heterogeneous = paper Cluster 2 instance mix).")
	fmt.Fprintln(w, "        Paper shape: Adaptive beats Original in both clusters; heterogeneity slows")
	fmt.Fprintln(w, "        training; Adaptive's edge shrinks under heterogeneity (less uniform arrivals).")
	renderSeriesTable(w, "\nloss over time", "time", r.Names, r.Loss, 12)
	tb := newTable("configuration", "time-to-target")
	for i := range r.Names {
		tb.addRow(r.Names[i], fmtDur(r.Converge[i], r.OK[i]))
	}
	tb.render(w)
}
