// Command specsync-sweep runs parameter sweeps over synchronization schemes
// and optimizer settings on the simulated cluster, printing one summary row
// per run. It is the tool used to calibrate the workload profiles and to
// reproduce the paper's cherry-picking grid searches (Table II).
//
// Example:
//
//	specsync-sweep -workload cifar10 -workers 40 -schemes asp,adaptive -lrs 0.05,0.1,0.2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/metrics"
	"specsync/internal/optimizer"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-sweep", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "cifar10", "workload: mf, cifar10, imagenet, tiny")
		workers      = fs.Int("workers", 40, "number of workers")
		servers      = fs.Int("servers", 0, "number of parameter shards (0 = auto)")
		seed         = fs.Int64("seed", 1, "master random seed")
		schemes      = fs.String("schemes", "asp,adaptive", "comma list: asp, bsp, ssp:<s>, naive:<dur>, cherry:<dur>:<rate>, adaptive, adaptive-ssp:<s>, sync-switch:<epoch>, abs, psp:<beta>")
		lrs          = fs.String("lrs", "", "comma list of constant learning rates (empty = workload default schedule)")
		momentum     = fs.Float64("momentum", -1, "override momentum (-1 = workload default)")
		maxVirtual   = fs.Duration("max", 4*time.Hour, "virtual time budget per run")
		target       = fs.Float64("target", 0, "override convergence target loss (0 = workload default)")
		hetero       = fs.Bool("hetero", false, "use the heterogeneous instance mix (paper Cluster 2)")
		size         = fs.String("size", "full", "workload size: full or small")
		jitter       = fs.Float64("jitter", -1, "override compute-time lognormal sigma (-1 = workload default)")
		noHiccups    = fs.Bool("no-hiccups", false, "disable the transient-stall process")

		stragglerSpecs = fs.String("stragglers", "", "straggler specs applied to every run, e.g. 'pause:3@10s, degrade:2x0.4@30s, congest:1x0.25, rack:0-3x0.5' (see internal/stragglers)")
		mitigations    = fs.String("mitigate", "none", "comma list of mitigations to sweep: none, clone, rebalance (requires -stragglers)")
		spares         = fs.Int("spares", 0, "spare worker slots for mitigation actions (0 = default 2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sz, err := cluster.SizeByName(*size)
	if err != nil {
		return err
	}
	wl, err := buildWorkload(*workloadName, sz, *workers, *seed)
	if err != nil {
		return err
	}
	if *target > 0 {
		wl.TargetLoss = *target
	}
	if *momentum >= 0 {
		wl.Momentum = *momentum
	}
	if *jitter >= 0 {
		wl.JitterSigma = *jitter
	}

	schemeList, err := parseSchemes(*schemes)
	if err != nil {
		return err
	}
	lrList, err := parseFloats(*lrs)
	if err != nil {
		return err
	}

	var speeds []float64
	if *hetero {
		speeds = cluster.InstanceSpeeds(*workers)
	}

	// The straggler axis: one fixed plan applied to every run, crossed with
	// the list of mitigations — so a single sweep compares schemes AND
	// mitigations under the same scripted slowdowns.
	var plan *stragglers.Plan
	mitList := []stragglers.Mitigation{stragglers.MitigateNone}
	if *stragglerSpecs != "" {
		if plan, err = stragglers.ParseSpecs(*stragglerSpecs); err != nil {
			return err
		}
		if mitList, err = parseMitigations(*mitigations); err != nil {
			return err
		}
	} else if *mitigations != "none" {
		return fmt.Errorf("-mitigate needs -stragglers (nothing to mitigate)")
	}

	fmt.Printf("workload=%s workers=%d dim=%d target=%.4f max=%v hetero=%v\n",
		wl.Name, *workers, wl.Model.Dim(), wl.TargetLoss, *maxVirtual, *hetero)
	header := []any{"scheme", "lr", "converged", "time", "iters", "aborts", "epochs", "final", "min", "staleness(p50/p95)"}
	format := "%-34s %-7s %-9s %-12s %-8s %-8s %-8s %-9s %-9s %-18s"
	if plan != nil {
		header = append([]any{"mitigation"}, header...)
		header = append(header, "P", "R")
		format = "%-11s " + format + " %-5s %-5s"
	}
	fmt.Printf(format+"\n", header...)

	for _, mit := range mitList {
		for _, sc := range schemeList {
			lrsToRun := lrList
			if len(lrsToRun) == 0 {
				lrsToRun = []float64{0} // sentinel: workload default
			}
			for _, lr := range lrsToRun {
				w := wl
				lrLabel := "default"
				if lr > 0 {
					w.Schedule = optimizer.Const(lr)
					lrLabel = fmt.Sprintf("%.3f", lr)
				}
				res, err := cluster.Run(cluster.Config{
					Workload:       w,
					Scheme:         sc,
					Workers:        *workers,
					Servers:        *servers,
					Seed:           *seed,
					Speeds:         speeds,
					Stragglers:     plan,
					Mitigation:     mit,
					Spares:         *spares,
					MaxVirtual:     *maxVirtual,
					DisableHiccups: *noHiccups,
					KeepTrace:      true,
				})
				if err != nil {
					return fmt.Errorf("run %s: %w", sc.Name(), err)
				}
				conv := "no"
				convTime := "-"
				if res.Converged {
					conv = "yes"
					convTime = res.ConvergeTime.Round(time.Second).String()
				}
				var stale []float64
				for _, ev := range res.Trace.Events() {
					if ev.Kind == trace.KindStaleness {
						stale = append(stale, float64(ev.Value))
					}
				}
				box := metrics.BoxOf(stale)
				row := []any{res.SchemeName, lrLabel, conv, convTime,
					fmt.Sprintf("%d", res.TotalIters), fmt.Sprintf("%d", res.Aborts),
					fmt.Sprintf("%d", res.Epochs),
					fmt.Sprintf("%.4f", res.FinalLoss), fmt.Sprintf("%.4f", res.Loss.Min()),
					fmt.Sprintf("%.0f/%.0f", box.P50, box.P95)}
				if plan != nil {
					var p, r float64
					if res.Stragglers != nil {
						p, r = res.Stragglers.Score.Precision, res.Stragglers.Score.Recall
					}
					row = append([]any{mitigationLabel(mit)}, row...)
					row = append(row, fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r))
				}
				fmt.Printf(format+"\n", row...)
			}
		}
	}
	return nil
}

// parseMitigations parses the -mitigate comma list.
func parseMitigations(s string) ([]stragglers.Mitigation, error) {
	var out []stragglers.Mitigation
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		m, err := stragglers.ParseMitigation(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mitigate list")
	}
	return out, nil
}

// mitigationLabel renders the mitigation column value.
func mitigationLabel(m stragglers.Mitigation) string {
	if m == stragglers.MitigateNone {
		return "none"
	}
	return string(m)
}

func buildWorkload(name string, size cluster.Size, workers int, seed int64) (cluster.Workload, error) {
	switch name {
	case "mf":
		return cluster.NewMF(size, workers, seed)
	case "cifar10":
		return cluster.NewCIFAR(size, workers, seed)
	case "imagenet":
		return cluster.NewImageNet(size, workers, seed)
	case "tiny":
		return cluster.NewTiny(workers, seed)
	default:
		return cluster.Workload{}, fmt.Errorf("unknown workload %q", name)
	}
}

func parseSchemes(s string) ([]scheme.Config, error) {
	var out []scheme.Config
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		switch parts[0] {
		case "asp":
			out = append(out, scheme.Config{Base: scheme.ASP})
		case "bsp":
			out = append(out, scheme.Config{Base: scheme.BSP})
		case "ssp":
			s, err := atoiPart(parts, 1, "ssp staleness")
			if err != nil {
				return nil, err
			}
			out = append(out, scheme.Config{Base: scheme.SSP, Staleness: s})
		case "naive":
			if len(parts) < 2 {
				return nil, fmt.Errorf("naive:<duration> required")
			}
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("naive delay: %w", err)
			}
			out = append(out, scheme.Config{Base: scheme.ASP, NaiveWait: d})
		case "cherry":
			if len(parts) < 3 {
				return nil, fmt.Errorf("cherry:<duration>:<rate> required")
			}
			d, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("cherry abort time: %w", err)
			}
			r, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("cherry abort rate: %w", err)
			}
			out = append(out, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: d, AbortRate: r})
		case "adaptive":
			out = append(out, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive})
		case "adaptive-ssp":
			s, err := atoiPart(parts, 1, "adaptive-ssp staleness")
			if err != nil {
				return nil, err
			}
			out = append(out, scheme.Config{Base: scheme.SSP, Staleness: s, Spec: scheme.SpecAdaptive})
		case "sync-switch":
			e, err := atoiPart(parts, 1, "sync-switch epoch")
			if err != nil {
				return nil, err
			}
			out = append(out, scheme.Config{Variant: scheme.VariantSyncSwitch, SwitchAt: e})
		case "abs":
			out = append(out, scheme.Config{Variant: scheme.VariantABS})
		case "psp":
			if len(parts) < 2 {
				return nil, fmt.Errorf("psp:<beta> required")
			}
			b, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("psp beta: %w", err)
			}
			out = append(out, scheme.Config{Variant: scheme.VariantPSP, PSPBeta: b})
		default:
			return nil, fmt.Errorf("unknown scheme %q", tok)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no schemes given")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("lr %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func atoiPart(parts []string, i int, what string) (int, error) {
	if len(parts) <= i {
		return 0, fmt.Errorf("%s required", what)
	}
	n, err := strconv.Atoi(parts[i])
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	return n, nil
}
