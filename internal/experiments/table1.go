package experiments

import (
	"fmt"
	"io"
	"time"
)

// TableIResult summarizes the benchmark workloads (paper Table I).
type TableIResult struct {
	Rows []TableIRow
}

// TableIRow is one workload descriptor.
type TableIRow struct {
	Workload  WorkloadID
	Params    int
	Dataset   string
	Samples   int
	BatchSize int
	IterTime  time.Duration
}

// TableI builds the workload summary.
func TableI(o Options) (*TableIResult, error) {
	o = o.normalize()
	res := &TableIResult{}
	datasets := map[WorkloadID]string{
		WorkloadMF:       "synthetic low-rank ratings (MovieLens sub)",
		WorkloadCIFAR:    "synthetic 10-class blobs (CIFAR-10 sub)",
		WorkloadImageNet: "synthetic many-class blobs (ImageNet sub)",
	}
	for _, id := range AllWorkloads {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, TableIRow{
			Workload:  id,
			Params:    wl.Model.Dim(),
			Dataset:   datasets[id],
			Samples:   wl.DatasetSize,
			BatchSize: wl.BatchSize,
			IterTime:  wl.IterTime,
		})
	}
	return res, nil
}

// Render prints the table.
func (r *TableIResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I: workload summary (paper: MF 4.2M / CIFAR-10 2.5M / ImageNet 5.9M params,")
	fmt.Fprintln(w, "         iteration times 3s / 14s / 70s; this reproduction scales parameter counts")
	fmt.Fprintln(w, "         ~1/100 and keeps the iteration-time profile in virtual time)")
	tb := newTable("workload", "#parameters", "dataset", "dataset size", "batch", "iteration time")
	for _, row := range r.Rows {
		tb.addRow(string(row.Workload), fmt.Sprintf("%d", row.Params), row.Dataset,
			fmt.Sprintf("%d", row.Samples), fmt.Sprintf("%d", row.BatchSize), row.IterTime.String())
	}
	tb.render(w)
}
