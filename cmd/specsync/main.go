// Command specsync runs one simulated distributed-training job from a run
// spec and prints its learning curve and summary — the quickest way to see
// SpecSync work:
//
//	specsync -spec examples/specs/cifar10-adaptive.json
//	specsync -spec examples/specs/tiny-adaptive.json -tuning -span-out spans.json
//
// A spec is the JSON form of cluster.Config (see cluster.DecodeSpec and
// examples/specs/); the flags only choose what is printed or exported.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/core"
	"specsync/internal/metrics"
	"specsync/internal/obs"
	"specsync/internal/scheme"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync", flag.ContinueOnError)
	var (
		specPath    = fs.String("spec", "", "run spec (JSON, see examples/specs)")
		curvePoints = fs.Int("curve", 15, "learning-curve rows to print")
		verboseTune = fs.Bool("tuning", false, "print adaptive tuning decisions")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, /clusterz, /stragglerz and /debugz on this address while running")
		pprofOn     = fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")
		spanOut     = fs.String("span-out", "", "write iteration spans as Chrome trace-event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	cfg, err := cluster.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	wl, sc := cfg.Workload, cfg.Scheme
	if *verboseTune {
		cfg.OnTune = func(epoch int, t core.Tuning) {
			if t.Enabled {
				fmt.Fprintf(os.Stderr, "epoch %4d: ABORT_TIME=%v mean ABORT_RATE=%.3f (F=%.2f, %d candidates)\n",
					epoch, t.AbortTime.Round(time.Millisecond), metrics.Mean(t.Rates), t.Improvement, t.Candidates)
			} else {
				fmt.Fprintf(os.Stderr, "epoch %4d: speculation paused\n", epoch)
			}
		}
	}

	o := obs.New(obs.Options{Spans: *spanOut != ""})
	cfg.Obs = o
	if *metricsAddr != "" {
		bootAt := time.Now()
		handler := obs.NewHandler(obs.HTTPConfig{
			Registry: o.Registry(),
			Health: func() obs.Health {
				h := obs.Health{
					Status:        "ok",
					Node:          "driver",
					UptimeSeconds: time.Since(bootAt).Seconds(),
				}
				if snap, ok := o.ClusterSnapshot(); ok {
					h.Epoch = snap.Epoch
					h.MembershipEpoch = snap.MembershipEpoch
					h.Generation = snap.Generation
				}
				if leader, term, ok := o.LeaderLease(); ok {
					h.Role, h.Term, h.Leader = "leader", term, leader
				}
				return h
			},
			Cluster:    o.ClusterSnapshot,
			Stragglers: o.StragglerSnapshot,
			Flight:     o.FlightDump,
			Pprof:      *pprofOn,
		})
		srv, addr, err := obs.Serve(*metricsAddr, handler)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}

	fmt.Printf("workload=%s scheme=%s workers=%d params=%d target=%.4f\n",
		wl.Name, sc.Name(), cfg.Workers, wl.Model.Dim(), wl.TargetLoss)
	start := time.Now()
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			return err
		}
		if err := o.Spans().WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s (open in Perfetto / chrome://tracing)\n",
			o.Spans().Len(), *spanOut)
	}

	fmt.Printf("\n%-12s %s\n", "virtual time", "eval loss")
	for _, p := range res.Loss.Downsample(*curvePoints) {
		fmt.Printf("%-12s %.4f\n", p.T.Round(time.Second), p.V)
	}
	fmt.Println()
	if res.Converged {
		fmt.Printf("converged at %v (virtual), %d cluster iterations at convergence\n",
			res.ConvergeTime.Round(time.Second), res.ItersAtConverge)
	} else {
		fmt.Printf("did not reach target %.4f within %v (final loss %.4f)\n",
			wl.TargetLoss, cfg.MaxVirtual, res.FinalLoss)
	}
	fmt.Printf("iterations=%d aborts=%d resyncs=%d epochs=%d\n",
		res.TotalIters, res.Aborts, res.ReSyncs, res.Epochs)
	if sc.Policy != scheme.PolicyNone {
		fmt.Printf("scheme: %d live switches, finished under %s\n", res.SchemeSwitches, res.FinalScheme)
	}
	if st := res.Faults; st != nil {
		fmt.Printf("faults: %d crashes, %d restarts (%d restored from checkpoint), %d evictions, %d readmissions, %d dropped msgs\n",
			st.Crashes, st.Restarts, st.Restores, st.Evictions, st.Readmissions, st.Drops)
		if st.LostPushes > 0 {
			fmt.Printf("faults: %d acknowledged pushes lost to restore rollback\n", st.LostPushes)
		}
		if st.SchedulerCrashes > 0 {
			fmt.Printf("scheduler: %d crashes, %d restarts (%d restored from checkpoint), %d state reports\n",
				st.SchedulerCrashes, st.SchedulerRestarts, st.SchedulerRestores, st.StateReports)
		}
	}
	if rs := res.Replication; rs != nil {
		fmt.Printf("replication: %d shard backups, %d standby schedulers; %d forwarded, %d applied, %d deduped; %d snapshots shipped\n",
			rs.Replicas, rs.StandbySchedulers, rs.Forwarded, rs.Applied, rs.Deduped, rs.SnapshotsShipped)
		if rs.Elections > 0 {
			fmt.Printf("failover: %d elections, leader %s serving at term %d, %d shard promotions\n",
				rs.Elections, rs.LeaderNode, rs.FinalTerm, rs.Promotions)
		} else if rs.Promotions > 0 {
			fmt.Printf("failover: %d shard promotions\n", rs.Promotions)
		}
	}
	if res.ParamsDigest != "" {
		fmt.Printf("params digest %s\n", res.ParamsDigest)
	}
	if ss := res.Stragglers; ss != nil {
		fmt.Printf("stragglers: injected %v, detected %v (precision %.2f, recall %.2f)\n",
			ss.Score.Truth, ss.Score.Detected, ss.Score.Precision, ss.Score.Recall)
		if m := ss.Mitigation; m.Clones > 0 || m.Rebalances > 0 {
			fmt.Printf("mitigation: %d clones (%d stopped, %d duplicate pushes deduped, %d dropped), %d rebalances\n",
				m.Clones, m.CloneStops, ss.CloneDeduped, ss.CloneDropped, m.Rebalances)
		}
	}
	if res.Scale != nil {
		fmt.Printf("membership: %d joins, %d leaves\n", res.Scale.Joins, res.Scale.Leaves)
	}
	data, control := res.Transfer.Split()
	fmt.Printf("transfer: data %s, control %s (%.4f%% control)\n",
		metrics.HumanBytes(data), metrics.HumanBytes(control),
		100*float64(control)/float64(data+control))
	if !cfg.Codec.IsRaw() && res.Codec != nil {
		push, _, _ := codec.Build(cfg.Codec)
		if push != nil {
			_, enc, blocks := res.Codec.EncodeTotals(push.ID())
			fmt.Printf("codec %s: ratio %.3f (%s encoded over %d blocks)\n",
				push.Name(), res.Codec.Ratio(push.ID()), metrics.HumanBytes(enc), blocks)
		}
		if cfg.Codec.UsesDelta() {
			_, enc, blocks := res.Codec.EncodeTotals(codec.IDDelta)
			fmt.Printf("codec delta: ratio %.3f (%s encoded over %d pulls)\n",
				res.Codec.Ratio(codec.IDDelta), metrics.HumanBytes(enc), blocks)
		}
	}
	if s := res.Obs; s != nil && s.Push.Count > 0 {
		fmt.Printf("latency: pull p50=%s push p50=%s compute mean=%s staleness p95=%.0f\n",
			secs(s.Pull.Quantile(0.5)), secs(s.Push.Quantile(0.5)),
			secs(s.Compute.Mean()), s.Staleness.Quantile(0.95))
	}
	if snap, ok := o.StragglerSnapshot(); ok && snap.Flagged > 0 {
		for _, w := range snap.Workers {
			if w.State != "ok" {
				fmt.Printf("straggler: worker %d %s (score %.2f, span %s)\n",
					w.Worker, w.State, w.Score, secs(w.IterSpanSeconds))
			}
		}
	}
	fmt.Printf("wall time %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// secs renders a histogram-quantile value (seconds) as a duration.
func secs(v float64) string {
	if v != v { // NaN: empty histogram
		return "-"
	}
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}
