package experiments

import (
	"fmt"
	"io"
	"sort"

	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/wire"
)

// Fig12Result is the communication-overhead study (paper Figs. 12-13):
// accumulated data transfer over time for Original vs SpecSync-Adaptive,
// plus the per-message-kind breakdown for Adaptive.
type Fig12Result struct {
	PerWorkload []Fig12Workload
}

// Fig12Workload is one workload's transfer comparison.
type Fig12Workload struct {
	Workload WorkloadID
	// TransferOriginal/TransferAdaptive are accumulated-bytes series.
	TransferOriginal *metrics.Series
	TransferAdaptive *metrics.Series
	// Totals at end of run.
	TotalOriginal int64
	TotalAdaptive int64
	// Breakdown of the Adaptive run by message kind (Fig 13).
	Breakdown map[wire.Kind]struct{ Bytes, Msgs int64 }
	// DataBytes/ControlBytes split for the Adaptive run.
	DataBytes, ControlBytes int64
}

// Fig12 runs Original and Adaptive on every workload and accounts transfer.
func Fig12(o Options) (*Fig12Result, error) {
	o = o.normalize()
	res := &Fig12Result{}
	for _, id := range AllWorkloads {
		wl, err := o.workload(id)
		if err != nil {
			return nil, err
		}
		orig, err := runOne(o, wl, schemeASP(), nil)
		if err != nil {
			return nil, err
		}
		adapt, err := runOne(o, wl, schemeAdaptive(), nil)
		if err != nil {
			return nil, err
		}
		data, control := adapt.Transfer.Split()
		res.PerWorkload = append(res.PerWorkload, Fig12Workload{
			Workload:         id,
			TransferOriginal: &orig.TransferSeries,
			TransferAdaptive: &adapt.TransferSeries,
			TotalOriginal:    orig.Transfer.TotalBytes(),
			TotalAdaptive:    adapt.Transfer.TotalBytes(),
			Breakdown:        adapt.Transfer.Breakdown(),
			DataBytes:        data,
			ControlBytes:     control,
		})
	}
	return res, nil
}

// Render prints the accumulated-transfer series (Fig 12).
func (r *Fig12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 12: accumulated data transfer over time, Original vs SpecSync-Adaptive.")
	fmt.Fprintln(w, "        Paper shape: nearly identical accumulation rate; Adaptive finishes sooner,")
	fmt.Fprintln(w, "        so its total transfer is smaller (paper CIFAR-10: 3.17 TB vs 2.00 TB).")
	for _, fw := range r.PerWorkload {
		fmt.Fprintf(w, "\n[%s] accumulated bytes over time\n", fw.Workload)
		renderSeriesTable(w, "", "time",
			[]string{"Original", "SpecSync-Adaptive"},
			[]*metrics.Series{fw.TransferOriginal, fw.TransferAdaptive}, 10)
		fmt.Fprintf(w, "total: Original %s vs Adaptive %s (%.1f%% of Original)\n",
			metrics.HumanBytes(fw.TotalOriginal), metrics.HumanBytes(fw.TotalAdaptive),
			100*float64(fw.TotalAdaptive)/float64(fw.TotalOriginal))
	}
}

// Fig13View prints the per-kind breakdown of the Adaptive runs (Fig 13).
func (r *Fig12Result) Fig13View(w io.Writer) {
	fmt.Fprintln(w, "Fig 13: transfer breakdown for SpecSync-Adaptive by message kind.")
	fmt.Fprintln(w, "        Paper shape: parameter data dominates; SpecSync control messages")
	fmt.Fprintln(w, "        (notify/re-sync) are a negligible fraction.")
	reg := msg.Registry()
	for _, fw := range r.PerWorkload {
		fmt.Fprintf(w, "\n[%s]\n", fw.Workload)
		tb := newTable("kind", "class", "messages", "bytes", "share")
		kinds := make([]wire.Kind, 0, len(fw.Breakdown))
		for k := range fw.Breakdown {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool {
			return fw.Breakdown[kinds[i]].Bytes > fw.Breakdown[kinds[j]].Bytes
		})
		total := fw.DataBytes + fw.ControlBytes
		for _, k := range kinds {
			st := fw.Breakdown[k]
			class := "data"
			if msg.IsControl(k) {
				class = "control"
			}
			tb.addRow(reg.Name(k), class, fmt.Sprintf("%d", st.Msgs),
				metrics.HumanBytes(st.Bytes),
				fmt.Sprintf("%.3f%%", 100*float64(st.Bytes)/float64(total)))
		}
		tb.render(w)
		fmt.Fprintf(w, "control traffic overall: %s of %s (%.4f%%)\n",
			metrics.HumanBytes(fw.ControlBytes), metrics.HumanBytes(total),
			100*float64(fw.ControlBytes)/float64(total))
	}
}
