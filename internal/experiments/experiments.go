// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI) plus the motivating studies of Sec. III, on the
// simulated cluster. Each experiment function returns a typed result with a
// Render method that prints the same rows/series the paper reports; the
// cmd/specsync-bench binary and the repository-root benchmarks drive them.
package experiments

import (
	"fmt"
	"io"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/scheme"
)

// Options controls the shared experiment parameters.
type Options struct {
	// Workers is the cluster size (the paper's Cluster 1 has 40).
	Workers int
	// Seed drives all randomness.
	Seed int64
	// Size selects workload scale (SizeSmall for quick benchmark runs).
	Size cluster.Size
	// MaxVirtual bounds each training run's simulated duration.
	MaxVirtual time.Duration
	// Verbose enables progress lines on Out during multi-run experiments.
	Verbose bool
	// Out receives progress lines when Verbose is set.
	Out io.Writer
}

// Defaults returns the paper-scale options.
func Defaults() Options {
	return Options{
		Workers:    40,
		Seed:       1,
		Size:       cluster.SizeFull,
		MaxVirtual: 6 * time.Hour,
	}
}

// Quick returns reduced options for smoke benchmarks.
func Quick() Options {
	return Options{
		Workers:    12,
		Seed:       1,
		Size:       cluster.SizeSmall,
		MaxVirtual: time.Hour,
	}
}

func (o Options) normalize() Options {
	d := Defaults()
	if o.Workers == 0 {
		o.Workers = d.Workers
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Size == 0 {
		o.Size = d.Size
	}
	if o.MaxVirtual == 0 {
		o.MaxVirtual = d.MaxVirtual
	}
	return o
}

func (o Options) progressf(format string, args ...any) {
	if o.Verbose && o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// WorkloadID names one of the paper's three benchmark workloads.
type WorkloadID string

// Workload identifiers (paper Table I).
const (
	WorkloadMF       WorkloadID = "mf"
	WorkloadCIFAR    WorkloadID = "cifar10"
	WorkloadImageNet WorkloadID = "imagenet"
)

// AllWorkloads lists the Table I workloads in paper order.
var AllWorkloads = []WorkloadID{WorkloadMF, WorkloadCIFAR, WorkloadImageNet}

// workload builds the named workload at the option scale.
func (o Options) workload(id WorkloadID) (cluster.Workload, error) {
	name := string(id)
	if o.Size == cluster.SizeSmall {
		name += "-small"
	}
	return cluster.WorkloadByName(name, o.Workers, o.Seed)
}

// CherrypickParams returns the grid-searched SpecSync-Cherrypick
// hyperparameters for a workload (the offline search the paper's Table II
// prices out; cmd/specsync-sweep reproduces the search itself).
func CherrypickParams(id WorkloadID, iterTime time.Duration) (abortTime time.Duration, abortRate float64) {
	// Found by sweeping abort time over {T/8..T/2} and rate over
	// {0.1..0.5} with cmd/specsync-sweep: a short window (T/8) with a
	// threshold well above the mean arrival rate (so only genuine bursts
	// trigger) is near-optimal across workloads.
	return iterTime / 8, 0.22
}

// schemeASP is the paper's "Original" baseline.
func schemeASP() scheme.Config { return scheme.Config{Base: scheme.ASP} }

// schemeAdaptive is SpecSync-Adaptive on ASP.
func schemeAdaptive() scheme.Config {
	return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}
}

// schemeCherry is SpecSync-Cherrypick on ASP for the given workload.
func schemeCherry(id WorkloadID, iterTime time.Duration) scheme.Config {
	at, rate := CherrypickParams(id, iterTime)
	return scheme.Config{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: at, AbortRate: rate}
}

// clusterConfig aliases cluster.Config for the per-run mutators.
type clusterConfig = cluster.Config

// schemeConfig aliases scheme.Config for scheme-factory tables.
type schemeConfig = scheme.Config

// runOne executes a single cluster run with shared option plumbing.
func runOne(o Options, wl cluster.Workload, sc scheme.Config, mut func(*cluster.Config)) (*cluster.Result, error) {
	cfg := cluster.Config{
		Workload:   wl,
		Scheme:     sc,
		Workers:    o.Workers,
		Seed:       o.Seed,
		MaxVirtual: o.MaxVirtual,
	}
	if mut != nil {
		mut(&cfg)
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", sc.Name(), wl.Name, err)
	}
	o.progressf("  %-32s %-10s converged=%-5v t=%-10v iters=%d aborts=%d",
		res.SchemeName, wl.Name, res.Converged, res.ConvergeTime.Round(time.Second), res.TotalIters, res.Aborts)
	return res, nil
}
