package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/codec"
	"specsync/internal/metrics"
	"specsync/internal/msg"
)

// CodecRow is one codec's end-to-end outcome on one workload: traffic,
// compression, and whether training quality held up.
type CodecRow struct {
	Workload WorkloadID
	Codec    string

	// DataBytes is the total data-plane traffic (pushes + pull responses).
	DataBytes int64
	// PushBytes / Pushes give bytes-per-push on the wire.
	PushBytes int64
	Pushes    int64
	// Ratio is encoded/dense bytes at the encode sites (1.0 for raw).
	Ratio float64

	Converged    bool
	ConvergeTime time.Duration
	FinalLoss    float64
	Aborts       int64
}

// CodecResult is the codec ablation: every codec on the MF and CIFAR
// workloads under SpecSync-Adaptive. Because simulated transfer time derives
// from encoded bytes, the ablation shows compression feeding back into push
// timing and speculation (abort counts shift between codecs), not just
// bandwidth totals.
type CodecResult struct {
	Rows []CodecRow
}

// codecConfigs lists the ablation arms in render order.
func codecConfigs() []codec.Config {
	return []codec.Config{
		{Name: "raw"},
		{Name: "topk", TopKFrac: codec.DefaultTopKFrac},
		{Name: "q8"},
		{Name: "delta"},
	}
}

// Codecs runs the codec ablation.
func Codecs(o Options) (*CodecResult, error) {
	o = o.normalize()
	res := &CodecResult{}
	for _, wid := range []WorkloadID{WorkloadMF, WorkloadCIFAR} {
		for _, cc := range codecConfigs() {
			cc := cc
			wl, err := o.workload(wid)
			if err != nil {
				return nil, err
			}
			r, err := runOne(o, wl, schemeAdaptive(), func(c *clusterConfig) { c.Codec = cc })
			if err != nil {
				return nil, err
			}
			row := CodecRow{
				Workload:     wid,
				Codec:        cc.Name,
				Converged:    r.Converged,
				ConvergeTime: r.ConvergeTime,
				FinalLoss:    r.FinalLoss,
				Aborts:       r.Aborts,
			}
			data, _ := r.Transfer.Split()
			row.DataBytes = data
			pushKind, pushLabel := msg.KindPushReq, "raw"
			ratioID := codec.IDRaw
			switch cc.Name {
			case "topk":
				pushKind, pushLabel, ratioID = msg.KindPushReqV2, "topk", codec.IDTopK
			case "q8":
				pushKind, pushLabel, ratioID = msg.KindPushReqV2, "q8", codec.IDQ8
			case "delta":
				ratioID = codec.IDDelta
			}
			row.PushBytes, row.Pushes = r.Codec.KindBytes(pushKind, pushLabel)
			row.Ratio = r.Codec.Ratio(ratioID)
			if cc.IsRaw() {
				row.Ratio = 1
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render prints the ablation table.
func (r *CodecResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Codec ablation (SpecSync-Adaptive; transfer time follows encoded bytes)")
	tb := newTable("workload", "codec", "data on wire", "bytes/push", "ratio", "converged", "time-to-target", "final loss", "aborts")
	for _, row := range r.Rows {
		perPush := "-"
		if row.Pushes > 0 {
			perPush = fmt.Sprintf("%.0f", float64(row.PushBytes)/float64(row.Pushes))
		}
		tb.addRow(
			string(row.Workload), row.Codec,
			metrics.HumanBytes(row.DataBytes), perPush,
			fmt.Sprintf("%.3f", row.Ratio),
			fmt.Sprintf("%v", row.Converged),
			fmtDur(row.ConvergeTime, row.Converged),
			fmt.Sprintf("%.4f", row.FinalLoss),
			fmt.Sprintf("%d", row.Aborts),
		)
	}
	tb.render(w)
}
