package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/elastic"
	"specsync/internal/trace"
)

// ElasticResult summarizes one grow/shrink run: how long rebalancing took,
// what it cost on the wire, and what it did to training throughput. The run
// is executed twice with the same seed and plan; Reproducible reports whether
// both produced the identical event trace (the elasticity protocol must not
// introduce nondeterminism into the DES).
type ElasticResult struct {
	Workers   int
	GrowTo    int
	Servers   int
	ServersTo int

	Joins          int64
	Leaves         int64
	Migrations     int64
	MigrationBytes int64
	// MeanRebalance / MaxRebalance are freeze-to-commit times: how long data
	// traffic on the involved shards stalled per migration.
	MeanRebalance time.Duration
	MaxRebalance  time.Duration

	// Throughput in fully-acked pushes per virtual second, in the three
	// phases of the plan: before the scale-up, while doubled, and after the
	// scale-down.
	ThroughputBefore float64
	ThroughputDuring float64
	ThroughputAfter  float64

	TotalIters   int64
	ServerPushes int64
	FinalLoss    float64

	Digest       string
	Reproducible bool
}

// Elastic runs the elasticity benchmark: an MF cluster doubles its workers
// (and grows its server set by half) a quarter of the way into a fixed
// horizon, then shrinks back at the halfway mark.
func Elastic(o Options) (*ElasticResult, error) {
	o = o.normalize()
	workers := o.Workers
	servers := workers
	if servers > 8 {
		servers = 8
	}
	extraSrv := (servers + 1) / 2

	build := func() (cluster.Config, error) {
		// Shard the data for the doubled cluster so joiners have work.
		wl, err := cluster.NewMF(o.Size, 2*workers, o.Seed)
		if err != nil {
			return cluster.Config{}, err
		}
		wl.TargetLoss = 0 // fixed horizon: phase throughput needs all phases to run
		horizon := 90 * wl.IterTime
		return cluster.Config{
			Workload:   wl,
			Scheme:     schemeAdaptive(),
			Workers:    workers,
			Servers:    servers,
			Seed:       o.Seed,
			Scale:      elastic.GrowShrink(workers, workers, servers, extraSrv, horizon/4, horizon/2),
			MaxVirtual: horizon,
			KeepTrace:  true,
		}, nil
	}

	run := func() (*cluster.Result, string, error) {
		cfg, err := build()
		if err != nil {
			return nil, "", err
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: elastic: %w", err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, res.Trace.Events()); err != nil {
			return nil, "", err
		}
		sum := sha256.Sum256(buf.Bytes())
		return res, hex.EncodeToString(sum[:]), nil
	}

	res, digest, err := run()
	if err != nil {
		return nil, err
	}
	o.progressf("  elastic %d->%d workers: %d migrations, final loss %.4f",
		workers, 2*workers, res.Scale.Migrations, res.FinalLoss)
	_, digest2, err := run()
	if err != nil {
		return nil, err
	}

	cfg, err := build()
	if err != nil {
		return nil, err
	}
	horizon := cfg.MaxVirtual
	out := &ElasticResult{
		Workers:      workers,
		GrowTo:       2 * workers,
		Servers:      servers,
		ServersTo:    servers + extraSrv,
		TotalIters:   res.TotalIters,
		FinalLoss:    res.FinalLoss,
		Digest:       digest,
		Reproducible: digest == digest2,
	}
	if res.Obs != nil {
		out.ServerPushes = res.Obs.ServerPushes
	}
	if s := res.Scale; s != nil {
		out.Joins, out.Leaves = s.Joins, s.Leaves
		out.Migrations, out.MigrationBytes = s.Migrations, s.MigrationBytes
		var total time.Duration
		for _, d := range s.Durations {
			total += d
			if d > out.MaxRebalance {
				out.MaxRebalance = d
			}
		}
		if len(s.Durations) > 0 {
			out.MeanRebalance = total / time.Duration(len(s.Durations))
		}
	}

	// Phase throughput from the trace: pushes per virtual second before the
	// scale-up, while grown, and after the scale-down. The simulator clock
	// starts at Unix(0,0).
	start := time.Unix(0, 0)
	upAt, downAt := start.Add(horizon/4), start.Add(horizon/2)
	var before, during, after float64
	for _, ev := range res.Trace.Events() {
		if ev.Kind != trace.KindPush {
			continue
		}
		switch {
		case ev.At.Before(upAt):
			before++
		case ev.At.Before(downAt):
			during++
		default:
			after++
		}
	}
	out.ThroughputBefore = before / (horizon / 4).Seconds()
	out.ThroughputDuring = during / (horizon / 4).Seconds()
	out.ThroughputAfter = after / (horizon / 2).Seconds()
	return out, nil
}

// Render prints the elasticity summary.
func (r *ElasticResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Elasticity: %d->%d->%d workers, %d->%d->%d server shards (SpecSync-Adaptive, MF)\n",
		r.Workers, r.GrowTo, r.Workers, r.Servers, r.ServersTo, r.Servers)
	tb := newTable("phase", "pushes/s")
	tb.addRow("before scale-up", fmt.Sprintf("%.2f", r.ThroughputBefore))
	tb.addRow("grown", fmt.Sprintf("%.2f", r.ThroughputDuring))
	tb.addRow("after scale-down", fmt.Sprintf("%.2f", r.ThroughputAfter))
	tb.render(w)
	fmt.Fprintf(w, "scale events: %d joins, %d retires, %d migrations (%d bytes of parameter state)\n",
		r.Joins, r.Leaves, r.Migrations, r.MigrationBytes)
	fmt.Fprintf(w, "rebalance stall: mean %v, max %v\n",
		r.MeanRebalance.Round(time.Microsecond), r.MaxRebalance.Round(time.Microsecond))
	fmt.Fprintf(w, "iterations=%d server pushes=%d final loss=%.4f\n", r.TotalIters, r.ServerPushes, r.FinalLoss)
	fmt.Fprintf(w, "trace digest %s (reproducible=%v)\n", r.Digest, r.Reproducible)
}
