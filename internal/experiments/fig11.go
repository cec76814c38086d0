package experiments

import (
	"fmt"
	"io"
	"time"
)

// Fig11Result is the scalability study (paper Fig. 11): for several cluster
// sizes, (a) the speedup of SpecSync-Adaptive over Original to reach the
// target loss, and (b) the loss improvement at a fixed time budget.
type Fig11Result struct {
	Sizes []int
	// SpeedupToTarget[i] = Original time / Adaptive time at size Sizes[i].
	SpeedupToTarget []float64
	SpeedupValid    []bool
	// Budget is the fixed-time budget used for the loss comparison.
	Budget time.Duration
	// LossOriginal/LossAdaptive at the budget.
	LossOriginal []float64
	LossAdaptive []float64
}

// Fig11 runs both scenarios at cluster sizes 20/30/40 (paper's sizes),
// scaled down proportionally for small option sizes.
func Fig11(o Options) (*Fig11Result, error) {
	o = o.normalize()
	sizes := []int{o.Workers / 2, o.Workers * 3 / 4, o.Workers}
	res := &Fig11Result{Sizes: sizes}

	for _, m := range sizes {
		oo := o
		oo.Workers = m
		wl, err := oo.workload(WorkloadCIFAR)
		if err != nil {
			return nil, err
		}
		if res.Budget == 0 {
			// Fixed budget: a mid-training point where the curves have
			// separated but not yet converged (roughly 70% of the baseline's
			// typical time-to-target on this workload).
			res.Budget = 400 * wl.IterTime
		}
		orig, err := runOne(oo, wl, schemeASP(), nil)
		if err != nil {
			return nil, err
		}
		adapt, err := runOne(oo, wl, schemeAdaptive(), nil)
		if err != nil {
			return nil, err
		}
		valid := orig.Converged && adapt.Converged && adapt.ConvergeTime > 0
		speedup := 0.0
		if valid {
			speedup = float64(orig.ConvergeTime) / float64(adapt.ConvergeTime)
		}
		res.SpeedupToTarget = append(res.SpeedupToTarget, speedup)
		res.SpeedupValid = append(res.SpeedupValid, valid)
		res.LossOriginal = append(res.LossOriginal, orig.Loss.ValueAt(res.Budget))
		res.LossAdaptive = append(res.LossAdaptive, adapt.Loss.ValueAt(res.Budget))
	}
	return res, nil
}

// Render prints both scalability views.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 11: scalability of SpecSync-Adaptive vs Original (CIFAR-like).")
	fmt.Fprintln(w, "        Paper shape: Adaptive wins at every size and the gap grows with cluster size.")
	tb := newTable("workers", "speedup to target", fmt.Sprintf("loss@%v Original", r.Budget.Round(time.Second)),
		fmt.Sprintf("loss@%v Adaptive", r.Budget.Round(time.Second)), "improvement")
	for i, m := range r.Sizes {
		sp := "-"
		if r.SpeedupValid[i] {
			sp = fmt.Sprintf("%.2fx", r.SpeedupToTarget[i])
		}
		impr := "-"
		if r.LossOriginal[i] > 0 {
			impr = fmt.Sprintf("%.1f%%", 100*(r.LossOriginal[i]-r.LossAdaptive[i])/r.LossOriginal[i])
		}
		tb.addRow(fmt.Sprintf("%d", m), sp, fmtF(r.LossOriginal[i]), fmtF(r.LossAdaptive[i]), impr)
	}
	tb.render(w)
}
