// Command specsync-bench regenerates the paper's tables and figures on the
// simulated cluster and prints their textual form. Run a single experiment
// by id, or everything:
//
//	specsync-bench -run fig8
//	specsync-bench -run all -workers 40 -seed 1
//
// Experiment ids: table1, timeline (figs 2/4/6), fig3, fig5, fig8, fig9,
// fig10, fig11, fig12, fig13, table2, staleness, ablations, codecs,
// failover, schemes, stragglers. The schemes id is the scheme-zoo
// shootout and stragglers the straggler-mitigation matrix (scheme × slowdown
// profile × {none, clone, rebalance}); both fail if any cell's double-run
// trace digests diverge.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-bench:", err)
		os.Exit(1)
	}
}

// csvOpener creates files under dir, making the directory on first use.
func csvOpener(dir string) func(name string) (io.WriteCloser, error) {
	return func(name string) (io.WriteCloser, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return os.Create(filepath.Join(dir, name))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-bench", flag.ContinueOnError)
	var (
		runWhat    = fs.String("run", "all", "experiment id (table1, timeline, fig3, fig5, fig8, fig9, fig10, fig11, fig12, fig13, table2, staleness, ablations, codecs, failover, schemes, stragglers) or 'all'")
		workers    = fs.Int("workers", 40, "cluster size")
		seed       = fs.Int64("seed", 1, "master seed")
		size       = fs.String("size", "full", "workload size: full or small")
		maxVirtual = fs.Duration("max", 6*time.Hour, "virtual time budget per training run")
		quiet      = fs.Bool("quiet", false, "suppress per-run progress lines")
		csvDir     = fs.String("csv", "", "also export learning/transfer curves as CSV into this directory")

		replicas     = fs.Int("replicas", 2, "failover experiment: shard backups per range")
		standbySched = fs.Int("standby-schedulers", 1, "failover experiment: standby scheduler incarnations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz, err := cluster.SizeByName(*size)
	if err != nil {
		return err
	}
	opts := experiments.Options{
		Workers:    *workers,
		Seed:       *seed,
		Size:       sz,
		MaxVirtual: *maxVirtual,
		Verbose:    !*quiet,
		Out:        os.Stderr,
	}

	ids := strings.Split(*runWhat, ",")
	if *runWhat == "all" {
		ids = []string{"table1", "timeline", "fig3", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table2", "staleness", "ablations", "codecs", "failover", "schemes", "stragglers"}
	}

	// fig8/fig9 and fig12/fig13 share runs; cache results.
	var fig8 *experiments.Fig8Result
	var fig12 *experiments.Fig12Result

	for i, id := range ids {
		if i > 0 {
			fmt.Println()
			fmt.Println(strings.Repeat("=", 90))
			fmt.Println()
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== running %s ==\n", id)
		switch strings.TrimSpace(id) {
		case "table1":
			r, err := experiments.TableI(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "timeline", "fig2", "fig4", "fig6":
			r, err := experiments.Timeline(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig3":
			r, err := experiments.Fig3(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig5":
			r, err := experiments.Fig5(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig8":
			if fig8 == nil {
				if fig8, err = experiments.RunFig8(opts); err != nil {
					return err
				}
			}
			fig8.Render(os.Stdout)
			if *csvDir != "" {
				if err := fig8.CSVFig8(csvOpener(*csvDir)); err != nil {
					return err
				}
			}
		case "fig9":
			if fig8 == nil {
				if fig8, err = experiments.RunFig8(opts); err != nil {
					return err
				}
			}
			fig8.Fig9View(os.Stdout)
		case "fig10":
			r, err := experiments.Fig10(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig11":
			r, err := experiments.Fig11(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "fig12":
			if fig12 == nil {
				if fig12, err = experiments.Fig12(opts); err != nil {
					return err
				}
			}
			fig12.Render(os.Stdout)
			if *csvDir != "" {
				if err := fig12.CSVFig12(csvOpener(*csvDir)); err != nil {
					return err
				}
			}
		case "fig13":
			if fig12 == nil {
				if fig12, err = experiments.Fig12(opts); err != nil {
					return err
				}
			}
			fig12.Fig13View(os.Stdout)
		case "table2":
			r, err := experiments.TableII(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "ablations":
			r, err := experiments.Ablations(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "staleness":
			r, err := experiments.Staleness(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "codecs":
			r, err := experiments.Codecs(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "failover":
			r, err := experiments.Failover(opts, *replicas, *standbySched)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
		case "schemes":
			r, err := experiments.Schemes(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			// The shootout doubles as the determinism smoke test: a dynamic
			// scheme that switches differently on a re-run is a bug, not noise.
			if !r.Reproducible {
				return fmt.Errorf("schemes: trace digests differ between identical runs")
			}
		case "stragglers":
			r, err := experiments.Stragglers(opts)
			if err != nil {
				return err
			}
			r.Render(os.Stdout)
			// Mitigation must never cost determinism: a clone race or a member
			// swap that lands differently on a re-run is a bug, not noise.
			if !r.Reproducible {
				return fmt.Errorf("stragglers: trace digests differ between identical runs")
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		fmt.Fprintf(os.Stderr, "== %s done in %v ==\n", id, time.Since(start).Round(time.Second))
	}
	return nil
}
