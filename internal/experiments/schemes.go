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
	"specsync/internal/faults"
	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// SchemeCell is one scheme × scenario run of the shootout. Every cell is
// executed twice with the same seed; Reproducible reports whether both runs
// produced byte-identical event traces (the determinism bar applies to the
// dynamic schemes — switches and all — exactly as it does to the static ones).
type SchemeCell struct {
	// Name is "scheme/scenario", the cell's key in tests.
	Name     string
	Scheme   string
	Scenario string

	Converged bool
	// ConvergeTime is the virtual time to the convergence target (zero when
	// the run never converged).
	ConvergeTime time.Duration
	TotalIters   int64
	FinalLoss    float64

	// Switches counts SchemeSwitch broadcasts the run issued; FinalScheme is
	// the gate the fleet ended under (they differ from the configured scheme
	// only for the policy entries).
	Switches    int64
	FinalScheme string

	Digest       string
	Reproducible bool
}

// SchemesResult is the scheme-zoo shootout: every synchronization discipline
// in the zoo — static gates, SpecSync, and the gate policies — run under
// every cluster condition in the scenario matrix.
type SchemesResult struct {
	Workers   int
	Scenarios []string
	Cells     []SchemeCell
	// Reproducible is the AND over all cells.
	Reproducible bool
}

// schemeEntry is one roster row: a display name and the scheme config.
type schemeEntry struct {
	name string
	sc   scheme.Config
}

// schemesRoster returns the shootout roster in table order.
func schemesRoster() []schemeEntry {
	return []schemeEntry{
		{name: "Original", sc: schemeASP()},
		{name: "BSP", sc: scheme.Config{Base: scheme.BSP}},
		{name: "SSP(s=3)", sc: scheme.Config{Base: scheme.SSP, Staleness: 3}},
		{name: "SpecSync-Adaptive", sc: schemeAdaptive()},
		{name: "Sync-Switch(@e5)", sc: scheme.Config{Base: scheme.BSP, Policy: scheme.PolicySyncSwitch, SwitchAt: 5}},
		{name: "ABS", sc: scheme.Config{Base: scheme.SSP, Staleness: scheme.ABSMinBound, Policy: scheme.PolicyABS}},
		{name: "PSP(β=0.75)", sc: scheme.Config{Base: scheme.BSP, Quorum: 0.75}},
		{name: "Meta(BSP↔SSP)", sc: scheme.Config{Base: scheme.BSP, Policy: scheme.PolicyMeta}},
		{name: "pSSP(s=3,β=0.75)", sc: scheme.Config{Base: scheme.SSP, Staleness: 3, Quorum: 0.75}},
		{name: "SpecSync-Adaptive(ABS)", sc: scheme.Config{Base: scheme.SSP, Staleness: scheme.ABSMinBound,
			Policy: scheme.PolicyABS, Spec: scheme.SpecAdaptive}},
	}
}

// schemeScenario is one column of the matrix: a cluster condition applied
// uniformly to every scheme.
type schemeScenario struct {
	name string
	// shardFor scales the workload sharding (the elastic scenario shards for
	// the grown fleet so joiners have data).
	shardFor func(workers int) int
	mut      func(c *cluster.Config, wl cluster.Workload, workers int)
}

// schemesScenarios returns the workload × fault × elasticity matrix columns.
func schemesScenarios(seed int64) []schemeScenario {
	return []schemeScenario{
		{name: "steady"},
		{
			// One worker runs at 0.55x for the whole run — the sustained
			// straggler the dynamic schemes exist to absorb.
			name: "straggler",
			mut: func(c *cluster.Config, _ cluster.Workload, workers int) {
				speeds := make([]float64, workers)
				for i := range speeds {
					speeds[i] = 1
				}
				speeds[workers-1] = 0.55
				c.Speeds = speeds
			},
		},
		{
			// A worker crashes a third of the way in and restarts cold.
			name: "crash",
			mut: func(c *cluster.Config, wl cluster.Workload, _ int) {
				c.Faults = &faults.Plan{Seed: seed, Events: []faults.Event{
					{Kind: faults.KindCrashWorker, Node: 1, At: 10 * wl.IterTime, RestartAfter: 4 * wl.IterTime},
				}}
			},
		},
		{
			// The fleet grows by half, then shrinks back.
			name: "elastic",
			shardFor: func(workers int) int {
				return workers + (workers+1)/2
			},
			mut: func(c *cluster.Config, wl cluster.Workload, workers int) {
				extra := (workers + 1) / 2
				servers := workers
				if servers > 8 {
					servers = 8
				}
				c.Servers = servers
				c.Scale = elastic.GrowShrink(workers, extra, servers, (servers+1)/2,
					10*wl.IterTime, 30*wl.IterTime)
			},
		},
	}
}

// Schemes runs the scheme-zoo shootout: the full roster against the full
// scenario matrix on the MF workload, every cell double-run for trace
// determinism.
func Schemes(o Options) (*SchemesResult, error) {
	o = o.normalize()
	roster := schemesRoster()
	scenarios := schemesScenarios(o.Seed)

	out := &SchemesResult{Workers: o.Workers, Reproducible: true}
	for _, sn := range scenarios {
		out.Scenarios = append(out.Scenarios, sn.name)
	}

	for _, sn := range scenarios {
		for _, se := range roster {
			cell, err := runSchemeCell(o, se, sn)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, *cell)
			if !cell.Reproducible {
				out.Reproducible = false
			}
			o.progressf("  %-20s %-10s converged=%-5v t=%-10v switches=%d final=%s",
				cell.Scheme, cell.Scenario, cell.Converged,
				cell.ConvergeTime.Round(time.Second), cell.Switches, cell.FinalScheme)
		}
	}
	return out, nil
}

// runSchemeCell executes one scheme under one scenario, twice, and compares
// trace digests.
func runSchemeCell(o Options, se schemeEntry, sn schemeScenario) (*SchemeCell, error) {
	run := func() (*cluster.Result, string, error) {
		shards := o.Workers
		if sn.shardFor != nil {
			shards = sn.shardFor(o.Workers)
		}
		wl, err := cluster.NewMF(o.Size, shards, o.Seed)
		if err != nil {
			return nil, "", err
		}
		cfg := cluster.Config{
			Workload:   wl,
			Scheme:     se.sc,
			Workers:    o.Workers,
			Seed:       o.Seed,
			MaxVirtual: o.MaxVirtual,
			KeepTrace:  true,
		}
		if sn.mut != nil {
			sn.mut(&cfg, wl, o.Workers)
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: schemes: %s under %s: %w", se.name, sn.name, err)
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
	_, digest2, err := run()
	if err != nil {
		return nil, err
	}
	return &SchemeCell{
		Name:         se.name + "/" + sn.name,
		Scheme:       se.name,
		Scenario:     sn.name,
		Converged:    res.Converged,
		ConvergeTime: res.ConvergeTime,
		TotalIters:   res.TotalIters,
		FinalLoss:    res.FinalLoss,
		Switches:     res.SchemeSwitches,
		FinalScheme:  res.FinalScheme,
		Digest:       digest,
		Reproducible: digest == digest2,
	}, nil
}

// Render prints the shootout matrix, one row per cell.
func (r *SchemesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Scheme shootout: %d workers, MF, scenarios %v\n", r.Workers, r.Scenarios)
	tb := newTable("scheme", "scenario", "converged", "time", "iters", "switches", "final scheme", "loss")
	for _, c := range r.Cells {
		tb.addRow(c.Scheme, c.Scenario, fmt.Sprintf("%v", c.Converged),
			fmtDur(c.ConvergeTime, c.Converged), fmt.Sprintf("%d", c.TotalIters),
			fmt.Sprintf("%d", c.Switches), c.FinalScheme, fmtF(c.FinalLoss))
	}
	tb.render(w)
	fmt.Fprintf(w, "all cells reproducible=%v\n", r.Reproducible)
}
