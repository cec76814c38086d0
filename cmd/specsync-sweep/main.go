// Command specsync-sweep runs parameter sweeps over synchronization schemes,
// learning rates and straggler mitigations on the simulated cluster,
// printing one summary row per run. It is the tool used to calibrate the
// workload profiles and to reproduce the paper's cherry-picking grid
// searches (Table II).
//
// A sweep spec is a base run spec (cluster.DecodeSpec) plus axes: schemes
// in the run spec's form, constant learning rates (empty or 0 = the
// workload's schedule) and mitigations ("none", "clone", "rebalance"):
//
//	{"base": {...}, "schemes": [{"base": "ASP"}, ...], "lrs": [0.05, 0.1], "mitigate": ["none", "clone"]}
//
//	specsync-sweep -spec examples/specs/sweep/tiny-zoo.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

// sweep is the sweep spec document.
type sweep struct {
	Base     json.RawMessage         `json:"base"`
	Schemes  []scheme.Config         `json:"schemes"`
	LRs      []float64               `json:"lrs"`
	Mitigate []stragglers.Mitigation `json:"mitigate"`
}

// cell is one run of the sweep.
type cell struct {
	cfg cluster.Config
	lr  string
}

// loadSweep reads a sweep spec and expands it into its runs, mitigation-
// major, each validated so that a bad combination fails before the first
// run starts.
func loadSweep(path string) (cluster.Config, []cell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return cluster.Config{}, nil, err
	}
	var sw sweep
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return cluster.Config{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	base, err := cluster.DecodeSpec(sw.Base)
	if err != nil {
		return cluster.Config{}, nil, fmt.Errorf("%s: base: %w", path, err)
	}
	if len(sw.Schemes) == 0 {
		return cluster.Config{}, nil, fmt.Errorf("%s: no schemes to sweep", path)
	}
	if len(sw.LRs) == 0 {
		sw.LRs = []float64{0}
	}
	for _, lr := range sw.LRs {
		if lr < 0 {
			return cluster.Config{}, nil, fmt.Errorf("%s: negative learning rate %v", path, lr)
		}
	}
	if len(sw.Mitigate) == 0 {
		sw.Mitigate = []stragglers.Mitigation{stragglers.MitigateNone}
	}
	var cells []cell
	for _, mit := range sw.Mitigate {
		for _, sc := range sw.Schemes {
			for _, lr := range sw.LRs {
				c := cell{cfg: base, lr: "default"}
				c.cfg.Scheme, c.cfg.Mitigation, c.cfg.KeepTrace = sc, mit, true
				if lr > 0 {
					c.cfg.Workload.Schedule = optimizer.Const(lr)
					c.lr = fmt.Sprintf("%.3f", lr)
				}
				if err := c.cfg.Validate(); err != nil {
					return cluster.Config{}, nil, fmt.Errorf("%s: %s: %w", path, sc.Name(), err)
				}
				cells = append(cells, c)
			}
		}
	}
	return base, cells, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-sweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec (JSON, see examples/specs/sweep)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	base, cells, err := loadSweep(*specPath)
	if err != nil {
		return err
	}

	wl := base.Workload
	fmt.Printf("workload=%s workers=%d dim=%d target=%.4f max=%v hetero=%v\n",
		wl.Name, base.Workers, wl.Model.Dim(), wl.TargetLoss, base.MaxVirtual, base.Hetero)
	header := []any{"scheme", "lr", "converged", "time", "iters", "aborts", "epochs", "final", "min", "staleness(p50/p95)"}
	format := "%-34s %-7s %-9s %-12s %-8s %-8s %-8s %-9s %-9s %-18s"
	straggling := !base.Stragglers.Empty()
	if straggling {
		header = append([]any{"mitigation"}, header...)
		header = append(header, "P", "R")
		format = "%-11s " + format + " %-5s %-5s"
	}
	fmt.Printf(format+"\n", header...)

	for _, c := range cells {
		res, err := cluster.Run(c.cfg)
		if err != nil {
			return fmt.Errorf("run %s: %w", c.cfg.Scheme.Name(), err)
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
		row := []any{res.SchemeName, c.lr, conv, convTime,
			fmt.Sprintf("%d", res.TotalIters), fmt.Sprintf("%d", res.Aborts),
			fmt.Sprintf("%d", res.Epochs),
			fmt.Sprintf("%.4f", res.FinalLoss), fmt.Sprintf("%.4f", res.Loss.Min()),
			fmt.Sprintf("%.0f/%.0f", box.P50, box.P95)}
		if straggling {
			var p, r float64
			if res.Stragglers != nil {
				p, r = res.Stragglers.Score.Precision, res.Stragglers.Score.Recall
			}
			mit := string(c.cfg.Mitigation)
			if mit == "" {
				mit = "none"
			}
			row = append([]any{mit}, row...)
			row = append(row, fmt.Sprintf("%.2f", p), fmt.Sprintf("%.2f", r))
		}
		fmt.Printf(format+"\n", row...)
	}
	return nil
}
