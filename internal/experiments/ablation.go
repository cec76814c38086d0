package experiments

import (
	"fmt"
	"io"

	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

// AblationResult covers the design decisions DESIGN.md calls out:
//
//  1. Centralized scheduler vs all-to-all broadcast (paper Sec. V-A): the
//     measured notify/re-sync bytes vs a counterfactual, the bytes an
//     m-to-m broadcast of the same pushes would have cost.
//  2. The bursty-arrival environment: SpecSync's edge with the transient
//     stall process on vs off.
type AblationResult struct {
	Workload WorkloadID

	// Broadcast ablation: measured centralized traffic, and the
	// counterfactual broadcast traffic of the same pushes.
	Pushes          int64
	CentralCtlBytes int64
	BroadcastBytes  int64
	CentralMsgs     int64
	BroadcastMsgs   int64

	// Hiccup ablation: speedup of Adaptive over Original with/without
	// stalls.
	SpeedupWithStalls    float64
	SpeedupWithoutStalls float64
	StallsValid          bool
}

// Ablations runs both studies on the CIFAR-like workload.
func Ablations(o Options) (*AblationResult, error) {
	o = o.normalize()
	wl, err := o.workload(WorkloadCIFAR)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: WorkloadCIFAR}

	// (1) Broadcast ablation: run the centralized design, measure its
	// speculation-control traffic, and price the all-to-all alternative off
	// the same run's push trace.
	central, err := runOne(o, wl, schemeCherry(WorkloadCIFAR, wl.IterTime), func(c *clusterConfig) {
		c.KeepTrace = true
	})
	if err != nil {
		return nil, err
	}
	res.Pushes = central.TotalIters
	for _, kind := range []wire.Kind{msg.KindNotify, msg.KindReSync} {
		b, m := central.Transfer.KindBytes(kind)
		res.CentralCtlBytes += b
		res.CentralMsgs += m
	}
	res.BroadcastBytes, res.BroadcastMsgs = broadcastCost(central.Trace.Events(), o.Workers)

	// (2) Hiccup ablation.
	speedup := func(disable bool) (float64, bool, error) {
		orig, err := runOne(o, wl, schemeASP(), func(c *clusterConfig) { c.DisableHiccups = disable })
		if err != nil {
			return 0, false, err
		}
		adapt, err := runOne(o, wl, schemeAdaptive(), func(c *clusterConfig) { c.DisableHiccups = disable })
		if err != nil {
			return 0, false, err
		}
		if !orig.Converged || !adapt.Converged || adapt.ConvergeTime == 0 {
			return 0, false, nil
		}
		return float64(orig.ConvergeTime) / float64(adapt.ConvergeTime), true, nil
	}
	var ok1, ok2 bool
	if res.SpeedupWithStalls, ok1, err = speedup(false); err != nil {
		return nil, err
	}
	if res.SpeedupWithoutStalls, ok2, err = speedup(true); err != nil {
		return nil, err
	}
	res.StallsValid = ok1 && ok2
	return res, nil
}

// broadcastCost prices the broadcast design of Sec. V-A, which has no
// scheduler: a worker sends each push's iteration to every peer as a control
// frame holding one varint. That frame is the push's Notify, so each push
// costs workers - 1 copies of it.
func broadcastCost(events []trace.Event, workers int) (bytes, msgs int64) {
	peers := int64(workers - 1)
	for _, ev := range events {
		if ev.Kind != trace.KindPush {
			continue
		}
		bytes += peers * int64(wire.EncodedSize(&msg.Notify{Iter: ev.Iter}))
		msgs += peers
	}
	return bytes, msgs
}

// Render prints both studies.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablations (%s)\n", r.Workload)

	fmt.Fprintln(w, "\n(1) Centralized scheduler vs all-to-all broadcast (paper Sec. V-A):")
	tb := newTable("design", "control messages", "control bytes")
	tb.addRow("centralized (measured)", fmt.Sprintf("%d", r.CentralMsgs), metrics.HumanBytes(r.CentralCtlBytes))
	tb.addRow("broadcast (counterfactual)", fmt.Sprintf("%d", r.BroadcastMsgs), metrics.HumanBytes(r.BroadcastBytes))
	tb.render(w)
	if r.CentralCtlBytes > 0 {
		fmt.Fprintf(w, "broadcast blowup: %.1fx the control bytes\n",
			float64(r.BroadcastBytes)/float64(r.CentralCtlBytes))
	}

	fmt.Fprintln(w, "\n(2) Bursty-arrival environment (transient stalls):")
	tb = newTable("environment", "Adaptive speedup over Original")
	if r.StallsValid {
		tb.addRow("with stalls", fmt.Sprintf("%.2fx", r.SpeedupWithStalls))
		tb.addRow("without stalls", fmt.Sprintf("%.2fx", r.SpeedupWithoutStalls))
	} else {
		tb.addRow("n/a", "a run did not converge")
	}
	tb.render(w)
}
