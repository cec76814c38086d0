package main

import (
	"fmt"
	"math/rand"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/model"
	"specsync/internal/optimizer"
	"specsync/internal/scheme"
	"specsync/internal/tensor"
)

// spec is one workload: its cluster shape and its frozen iteration budgets.
// Budgets are per worker and per round; a run repeats rounds until it has
// measured for -seconds, so the budgets fix what one sample is, not how long
// a run lasts.
type spec struct {
	name string
	tcp  bool

	workers, servers int
	// dim/n/batch/lr shape the linear-regression problem of every workload
	// but sim_paper, which trains the repo's CIFAR-10 substitute.
	dim, n, batch int
	lr            float64
	codec         codec.Config
	speeds        func(int) []float64
	// hiccups keeps the DES network model's random cluster-wide stalls. Only
	// the paper experiment has them; elsewhere they would be most of the
	// seed-to-seed spread of sim_virtual_s and say nothing about the code.
	hiccups bool

	// TCP: every worker runs warm+budget+pad iterations in one continuous
	// closed loop; the window is the 2*budget cluster-wide completions that
	// follow the first workers*warm, and pad keeps both clients busy until
	// the window has closed.
	// DES: warm caps the throw-away warm-up run, budget caps the measured
	// run (0 = run to the convergence target).
	warm, budget, pad int64

	// slice is the number of cluster-wide iterations in one slice of the
	// window (see slice in stats.go).
	slice int64

	// lossCeiling bounds the final evaluation loss, as a share of the loss at
	// the initial vector (TCP correctness check: the budget is fixed, so the
	// loss after it is what can be checked).
	lossCeiling float64
	// twinIters is the per-worker budget of the DES replay of a TCP
	// workload's inputs, which supplies its exact sim_* metrics.
	twinIters int64
	// replayDiv divides the layer replays' operation counts (scaled sets it).
	replayDiv int64
}

// The budgets below were calibrated once on the 2-core reference box so a
// TCP round's window lasts 1-2.5 s and a sim_fleet round about 2 s
// (sim_paper: one run to convergence, about 13 s); see README.md, "Sizing".
// A shorter sim_fleet round gives more samples but a less settled tuner:
// at 6 iterations per worker sim_virtual_s spread 6 % over seeds, at 20, 2 %.
var specs = []spec{
	{
		name: "tcp_ctrl", tcp: true, workers: 2, servers: 1,
		dim: 64, n: 512, batch: 8, lr: 0.25 / 64,
		warm: 2000, budget: 10000, pad: 600, slice: 250, lossCeiling: 0.05, twinIters: 2000,
	},
	{
		name: "tcp_dense", tcp: true, workers: 2, servers: 2,
		dim: 16384, n: 128, batch: 4, lr: 0.25 / 16384,
		warm: 250, budget: 1600, pad: 100, slice: 50, lossCeiling: 1.02, twinIters: 200,
	},
	{
		name: "tcp_topk", tcp: true, workers: 2, servers: 2,
		dim: 16384, n: 128, batch: 4, lr: 0.25 / 16384,
		codec: codec.Config{Name: "topk", TopKFrac: 0.1},
		warm:  60, budget: 400, pad: 30, slice: 16, lossCeiling: 1.02, twinIters: 100,
	},
	{
		name: "sim_paper", workers: 40, speeds: cluster.InstanceSpeeds, hiccups: true,
		warm: 12, budget: 0, slice: 128,
	},
	{
		name: "sim_fleet", workers: 512, servers: 8,
		dim: 24, n: 4096, batch: 8, lr: 0.05 / 512,
		warm: 4, budget: 20, slice: 512,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scaled divides every budget by div (at least two iterations each); the
// tests run the ledger at 1/200 scale. A scaled sim_paper is capped instead
// of run to its target, so it is checked like the other budgeted runs.
func (sp spec) scaled(div int64) spec {
	shrink := func(v int64) int64 {
		if v == 0 {
			return 0
		}
		if v /= div; v < 2 {
			v = 2
		}
		return v
	}
	sp.warm, sp.pad, sp.twinIters = shrink(sp.warm), shrink(sp.pad), shrink(sp.twinIters)
	sp.replayDiv = div
	if sp.budget == 0 && div > 1 {
		sp.budget = 2
	} else {
		sp.budget = shrink(sp.budget)
	}
	if sp.tcp && sp.budget < 4 {
		sp.budget = 4 // enough completions in the window for every gap and slice statistic
	}
	if sp.tcp && div > 1 {
		sp.lossCeiling = 1.02 // a fraction of the budget buys no target, only "no divergence"
	}
	return sp
}

var specScheme = scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}

// paperDataset is the seed of sim_paper's training set. The paper trains on
// one fixed dataset (CIFAR-10) and varies the run; here too -seed drives the
// initial vector and every node's random stream but not the samples, because
// this substitute's time-to-target swings two-fold with the drawn class
// geometry, which would bury any change in the protocol.
const paperDataset = 1

// inputs is everything a workload's program under test receives; all of it
// is a function of (spec, seed).
type inputs struct {
	wl      cluster.Workload
	initVec tensor.Vec
	seed    int64
}

func (sp spec) inputs(seed int64) (inputs, error) {
	var wl cluster.Workload
	if sp.dim == 0 {
		var err error
		if wl, err = cluster.NewCIFAR(cluster.SizeFull, sp.workers, paperDataset); err != nil {
			return inputs{}, err
		}
	} else {
		lr, err := model.NewLinReg(model.LinRegConfig{
			Name: sp.name, Dim: sp.dim, N: sp.n, EvalN: 64, Shards: sp.workers,
			Noise: 0.1, BatchSize: sp.batch, Seed: seed,
		})
		if err != nil {
			return inputs{}, err
		}
		wl = cluster.Workload{
			Name: sp.name, Model: lr,
			// TCP: the modelled compute is the 1 us floor, so an iteration is
			// the protocol and not a sleep. DES: one virtual second.
			IterTime: time.Second, JitterSigma: 0.2, EvalEvery: time.Second,
			Schedule: optimizer.Const(sp.lr), Clip: 50,
			DatasetSize: sp.n, BatchSize: sp.batch,
		}
		if sp.tcp {
			wl.IterTime, wl.JitterSigma = time.Microsecond, 0
		}
	}
	if err := wl.Validate(); err != nil {
		return inputs{}, err
	}
	// The same derivation cluster.Run uses, so a TCP workload and its DES
	// twin start from the identical vector.
	initVec := wl.Model.Init(rand.New(rand.NewSource(seed ^ 0x1217)))
	return inputs{wl: wl, initVec: initVec, seed: seed}, nil
}

// replayed reports whether the rounds of one run do identical work slice for
// slice: a DES workload with a fixed budget (the simulator is deterministic;
// sim_paper's rounds are replays too, but a run holds only one or two).
func (sp spec) replayed() bool { return !sp.tcp && sp.budget > 0 }

func (sp spec) serverCount() int {
	if sp.servers > 0 {
		return sp.servers
	}
	if sp.workers > 8 {
		return 8
	}
	return sp.workers
}

func (sp spec) String() string {
	return fmt.Sprintf("%s (%d workers, %d servers, warm %d / budget %d / pad %d per worker)",
		sp.name, sp.workers, sp.serverCount(), sp.warm, sp.budget, sp.pad)
}
