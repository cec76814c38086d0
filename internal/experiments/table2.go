package experiments

import (
	"fmt"
	"io"
	"time"
)

// TableIIResult prices the hyperparameter search (paper Table II): the
// exhaustive Cherrypick grid search costs one full training run per trial,
// while Adaptive tunes from logged notify timestamps with a closed-form
// estimate at zero extra experiment cost.
type TableIIResult struct {
	Rows []TableIIRow
}

// TableIIRow is one workload's search-cost comparison.
type TableIIRow struct {
	Workload        WorkloadID
	TrialsAbortTime int
	TrialsAbortRate int
	TrialTime       time.Duration // virtual duration of one profiling run
	TotalSearch     time.Duration // grid size x trial time
	AdaptiveCost    time.Duration // extra experiment time for adaptive (zero)
}

// TableII measures one Cherrypick trial per workload (a full training run)
// and extrapolates the paper's grid sizes.
func TableII(o Options) (*TableIIResult, error) {
	o = o.normalize()
	// Paper grid sizes: ABORT_TIME trials 5/7/10, ABORT_RATE trials 10.
	timeTrials := map[WorkloadID]int{WorkloadMF: 5, WorkloadCIFAR: 7, WorkloadImageNet: 10}
	res := &TableIIResult{}
	for _, id := range AllWorkloads {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		// One profiling trial = training to convergence under a candidate
		// setting; use the cherrypick configuration as the representative.
		run, err := runOne(o, wl, schemeCherry(id, wl.IterTime), nil)
		if err != nil {
			return nil, err
		}
		trial := run.Elapsed
		if run.Converged {
			trial = run.ConvergeTime
		}
		nt := timeTrials[id]
		res.Rows = append(res.Rows, TableIIRow{
			Workload:        id,
			TrialsAbortTime: nt,
			TrialsAbortRate: 10,
			TrialTime:       trial,
			TotalSearch:     time.Duration(nt*10) * trial,
			AdaptiveCost:    0,
		})
	}
	return res, nil
}

// Render prints the cost comparison.
func (r *TableIIResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Table II: cost of exhaustive Cherrypick search vs Adaptive tuning.")
	fmt.Fprintln(w, "          Paper: 40 h (MF), 420 h (CIFAR-10), >800 h (ImageNet) of profiling;")
	fmt.Fprintln(w, "          Adaptive needs no profiling runs (closed-form Eq. 7 over logged pushes).")
	tb := newTable("workload", "#trials ABORT_TIME", "#trials ABORT_RATE", "each trial (virtual)", "total search (virtual)", "adaptive cost")
	for _, row := range r.Rows {
		tb.addRow(string(row.Workload),
			fmt.Sprintf("%d", row.TrialsAbortTime),
			fmt.Sprintf("%d", row.TrialsAbortRate),
			row.TrialTime.Round(time.Minute).String(),
			row.TotalSearch.Round(time.Hour).String(),
			"none (per-epoch closed form)")
	}
	tb.render(w)
}
