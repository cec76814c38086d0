package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/wire"
)

// AblationResult covers the design decisions DESIGN.md calls out:
//
//  1. Centralized scheduler vs all-to-all broadcast (paper Sec. V-A): the
//     measured notify/re-sync bytes vs the bytes an m-to-m PushNotice
//     broadcast of the same push events would have cost.
//  2. The "too late to abort" cutoff (paper Sec. IV-A): convergence with the
//     cutoff at its default, disabled, and aggressive.
//  3. The bursty-arrival environment: SpecSync's edge with the transient
//     stall process on vs off.
type AblationResult struct {
	Workload WorkloadID

	// Broadcast ablation.
	Pushes          int64
	CentralCtlBytes int64
	BroadcastBytes  int64
	CentralMsgs     int64
	BroadcastMsgs   int64

	// Late-cutoff ablation.
	CutoffFracs    []float64
	CutoffConverge []time.Duration
	CutoffOK       []bool
	CutoffAborts   []int64

	// Hiccup ablation: speedup of Adaptive over Original with/without
	// stalls.
	SpeedupWithStalls    float64
	SpeedupWithoutStalls float64
	StallsValid          bool
}

// Ablations runs all three studies on the CIFAR-like workload.
func Ablations(o Options) (*AblationResult, error) {
	o = o.normalize()
	wl, err := o.workload(WorkloadCIFAR)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: WorkloadCIFAR}

	// (1) Broadcast ablation: run the centralized design and the real
	// decentralized (all-to-all PushNotice) implementation and compare
	// their measured speculation-control traffic.
	at, rate := CherrypickParams(WorkloadCIFAR, wl.IterTime)
	central, err := runOne(o, wl, schemeConfig{
		Base: schemeASP().Base, Spec: schemeCherry(WorkloadCIFAR, wl.IterTime).Spec,
		AbortTime: at, AbortRate: rate,
	}, nil)
	if err != nil {
		return nil, err
	}
	res.Pushes = central.TotalIters
	for _, kind := range []wire.Kind{msg.KindNotify, msg.KindReSync} {
		b, m := central.Transfer.KindBytes(kind)
		res.CentralCtlBytes += b
		res.CentralMsgs += m
	}
	broadcast, err := runOne(o, wl, schemeConfig{
		Base: schemeASP().Base, Spec: schemeCherry(WorkloadCIFAR, wl.IterTime).Spec,
		AbortTime: at, AbortRate: rate, Decentralized: true,
	}, nil)
	if err != nil {
		return nil, err
	}
	b, m := broadcast.Transfer.KindBytes(msg.KindPushNotice)
	res.BroadcastBytes = b
	res.BroadcastMsgs = m

	// (2) Late-cutoff ablation.
	res.CutoffFracs = []float64{0.5, 0.9, 1.0}
	for _, frac := range res.CutoffFracs {
		frac := frac
		r, err := runOne(o, wl, schemeAdaptive(), func(c *clusterConfig) {
			c.AbortLateFrac = frac
		})
		if err != nil {
			return nil, err
		}
		res.CutoffConverge = append(res.CutoffConverge, r.ConvergeTime)
		res.CutoffOK = append(res.CutoffOK, r.Converged)
		res.CutoffAborts = append(res.CutoffAborts, r.Aborts)
	}

	// (3) Hiccup ablation.
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

// Render prints all three studies.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablations (%s)\n", r.Workload)

	fmt.Fprintln(w, "\n(1) Centralized scheduler vs all-to-all broadcast (paper Sec. V-A):")
	tb := newTable("design", "control messages", "control bytes")
	tb.addRow("centralized (measured)", fmt.Sprintf("%d", r.CentralMsgs), metrics.HumanBytes(r.CentralCtlBytes))
	tb.addRow("broadcast (measured)", fmt.Sprintf("%d", r.BroadcastMsgs), metrics.HumanBytes(r.BroadcastBytes))
	tb.render(w)
	if r.CentralCtlBytes > 0 {
		fmt.Fprintf(w, "broadcast blowup: %.1fx the control bytes\n",
			float64(r.BroadcastBytes)/float64(r.CentralCtlBytes))
	}

	fmt.Fprintln(w, "\n(2) 'Too late to abort' cutoff (fraction of planned compute):")
	tb = newTable("cutoff", "converged", "time-to-target", "aborts")
	for i, f := range r.CutoffFracs {
		label := fmt.Sprintf("%.1f", f)
		if f == 1.0 {
			label += " (no cutoff)"
		}
		tb.addRow(label, fmt.Sprintf("%v", r.CutoffOK[i]), fmtDur(r.CutoffConverge[i], r.CutoffOK[i]),
			fmt.Sprintf("%d", r.CutoffAborts[i]))
	}
	tb.render(w)

	fmt.Fprintln(w, "\n(3) Bursty-arrival environment (transient stalls):")
	tb = newTable("environment", "Adaptive speedup over Original")
	if r.StallsValid {
		tb.addRow("with stalls", fmt.Sprintf("%.2fx", r.SpeedupWithStalls))
		tb.addRow("without stalls", fmt.Sprintf("%.2fx", r.SpeedupWithoutStalls))
	} else {
		tb.addRow("n/a", "a run did not converge")
	}
	tb.render(w)
}
