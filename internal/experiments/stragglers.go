package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/scheme"
	"specsync/internal/stragglers"
	"specsync/internal/trace"
)

// stragglerSpares is the spare-slot budget every mitigated cell gets. Spares
// need no data shards of their own: clones share their target's shard and
// rebalance replacements inherit their retired predecessor's, so the workload
// is identical across the whole matrix.
const stragglerSpares = 2

// StragglerCell is one scheme × profile × mitigation run of the stragglers
// matrix. Every cell runs twice with the same seed; Reproducible reports
// byte-identical event traces.
type StragglerCell struct {
	// Name is "scheme/profile/mitigation", the cell's key in tests.
	Name       string
	Scheme     string
	Profile    string
	Mitigation string

	Converged bool
	// ConvergeTime is the virtual time to the convergence target (zero when
	// the run never converged).
	ConvergeTime time.Duration
	TotalIters   int64
	FinalLoss    float64

	// Detector scoring against the profile's ground truth.
	Precision float64
	Recall    float64

	// Mitigation accounting.
	Clones       int64
	CloneDeduped int64
	Rebalances   int64

	Digest       string
	Reproducible bool
}

// StragglersResult is the straggler-mitigation matrix: every scheme under
// every slowdown profile, unmitigated and under each mitigation.
type StragglersResult struct {
	Workers  int
	Profiles []string
	Schemes  []string
	Cells    []StragglerCell
	// Reproducible is the AND over all cells.
	Reproducible bool
}

// stragglerProfile is one row of the profile axis: a named plan builder
// parameterized by cluster size and iteration time.
type stragglerProfile struct {
	name string
	plan func(workers int, iterTime time.Duration) *stragglers.Plan
}

// stragglerProfiles returns the four slowdown modes, scaled to the cluster.
func stragglerProfiles() []stragglerProfile {
	return []stragglerProfile{
		{
			// Transient stall: the last worker freezes completely for a long
			// stretch (GC, disk, preemption) and then resumes.
			name: "pause",
			plan: func(workers int, it time.Duration) *stragglers.Plan {
				return &stragglers.Plan{Events: []stragglers.Event{
					{Kind: stragglers.KindPause, Worker: workers - 1, At: 10 * it, Duration: 60 * it},
				}}
			},
		},
		{
			// Sustained degradation: one worker at 0.4x for the rest of the
			// run (thermal throttling, noisy neighbor).
			name: "degrade",
			plan: func(workers int, it time.Duration) *stragglers.Plan {
				return &stragglers.Plan{Events: []stragglers.Event{
					{Kind: stragglers.KindDegrade, Worker: workers - 1, At: 5 * it, Speed: 0.4},
				}}
			},
		},
		{
			// Congested link: one worker's messages take 5000x as long on the
			// wire (a ~1 Gbps link flapping down to modem speeds), so every
			// pull/push round trip costs seconds; its CPU is fine. Milder
			// multipliers disappear against the 3 s compute phase on the
			// default EC2-like network.
			name: "congest",
			plan: func(workers int, it time.Duration) *stragglers.Plan {
				return &stragglers.Plan{Events: []stragglers.Event{
					{Kind: stragglers.KindCongest, Worker: workers - 1, At: 5 * it, Speed: 0.0002},
				}}
			},
		},
		{
			// Correlated rack-level slowdown: a quarter of the fleet at 0.5x.
			name: "rack",
			plan: func(workers int, it time.Duration) *stragglers.Plan {
				group := make([]int, 0, workers/4)
				for w := 0; w < (workers+3)/4; w++ {
					group = append(group, w)
				}
				return &stragglers.Plan{Events: []stragglers.Event{
					{Kind: stragglers.KindRack, Workers: group, At: 5 * it, Speed: 0.5},
				}}
			},
		},
	}
}

// stragglersRoster returns the scheme axis: the static baselines the paper
// compares against and SpecSync.
func stragglersRoster() []schemeEntry {
	return []schemeEntry{
		{name: "BSP", sc: scheme.Config{Base: scheme.BSP}},
		{name: "SSP(s=3)", sc: scheme.Config{Base: scheme.SSP, Staleness: 3}},
		{name: "SpecSync-Adaptive", sc: schemeAdaptive()},
	}
}

// stragglerMitigations returns the mitigation axis.
func stragglerMitigations() []stragglers.Mitigation {
	return []stragglers.Mitigation{stragglers.MitigateNone, stragglers.MitigateClone, stragglers.MitigateRebalance}
}

// mitigationName renders the mitigation axis value for cell names.
func mitigationName(m stragglers.Mitigation) string {
	if m == stragglers.MitigateNone {
		return "none"
	}
	return string(m)
}

// Stragglers runs the straggler-mitigation matrix on the MF workload: every
// scheme × slowdown profile × mitigation, every cell double-run for trace
// determinism.
func Stragglers(o Options) (*StragglersResult, error) {
	o = o.normalize()
	roster := stragglersRoster()
	profiles := stragglerProfiles()
	mits := stragglerMitigations()

	out := &StragglersResult{Workers: o.Workers, Reproducible: true}
	for _, p := range profiles {
		out.Profiles = append(out.Profiles, p.name)
	}
	for _, se := range roster {
		out.Schemes = append(out.Schemes, se.name)
	}

	for _, p := range profiles {
		for _, se := range roster {
			for _, mit := range mits {
				cell, err := runStragglerCell(o, se, p, mit)
				if err != nil {
					return nil, err
				}
				out.Cells = append(out.Cells, *cell)
				if !cell.Reproducible {
					out.Reproducible = false
				}
				o.progressf("  %-18s %-8s %-10s converged=%-5v t=%-10v P=%.2f R=%.2f clones=%d rebal=%d",
					cell.Scheme, cell.Profile, cell.Mitigation, cell.Converged,
					cell.ConvergeTime.Round(time.Second), cell.Precision, cell.Recall,
					cell.Clones, cell.Rebalances)
			}
		}
	}
	return out, nil
}

// runStragglerCell executes one scheme under one profile and mitigation,
// twice, and compares trace digests.
func runStragglerCell(o Options, se schemeEntry, p stragglerProfile, mit stragglers.Mitigation) (*StragglerCell, error) {
	run := func() (*cluster.Result, string, error) {
		wl, err := cluster.NewMF(o.Size, o.Workers, o.Seed)
		if err != nil {
			return nil, "", err
		}
		cfg := cluster.Config{
			Workload:   wl,
			Scheme:     se.sc,
			Workers:    o.Workers,
			Seed:       o.Seed,
			Stragglers: p.plan(o.Workers, wl.IterTime),
			Mitigation: mit,
			Spares:     stragglerSpares,
			MaxVirtual: o.MaxVirtual,
			KeepTrace:  true,
		}
		res, err := cluster.Run(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: stragglers: %s under %s/%s: %w",
				se.name, p.name, mitigationName(mit), err)
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
	cell := &StragglerCell{
		Name:         se.name + "/" + p.name + "/" + mitigationName(mit),
		Scheme:       se.name,
		Profile:      p.name,
		Mitigation:   mitigationName(mit),
		Converged:    res.Converged,
		ConvergeTime: res.ConvergeTime,
		TotalIters:   res.TotalIters,
		FinalLoss:    res.FinalLoss,
		Digest:       digest,
		Reproducible: digest == digest2,
	}
	if res.Stragglers != nil {
		cell.Precision = res.Stragglers.Score.Precision
		cell.Recall = res.Stragglers.Score.Recall
		cell.Clones = res.Stragglers.Mitigation.Clones
		cell.CloneDeduped = res.Stragglers.CloneDeduped
		cell.Rebalances = res.Stragglers.Mitigation.Rebalances
	}
	return cell, nil
}

// Render prints the matrix, one row per cell.
func (r *StragglersResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Straggler mitigation matrix: %d workers (+%d spares), MF, profiles %v\n",
		r.Workers, stragglerSpares, r.Profiles)
	tb := newTable("scheme", "profile", "mitigation", "converged", "time", "iters", "P", "R", "clones", "rebal", "loss")
	for _, c := range r.Cells {
		tb.addRow(c.Scheme, c.Profile, c.Mitigation, fmt.Sprintf("%v", c.Converged),
			fmtDur(c.ConvergeTime, c.Converged), fmt.Sprintf("%d", c.TotalIters),
			fmtF(c.Precision), fmtF(c.Recall),
			fmt.Sprintf("%d", c.Clones), fmt.Sprintf("%d", c.Rebalances), fmtF(c.FinalLoss))
	}
	tb.render(w)
	fmt.Fprintf(w, "all cells reproducible=%v\n", r.Reproducible)
}
