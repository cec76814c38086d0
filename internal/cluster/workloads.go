// Package cluster wires servers, workers and the scheduler into a running
// training job on the discrete-event simulator, and defines the three
// benchmark workload profiles of paper Table I (scaled ~1/100 in parameter
// count so experiments run in seconds of wall time; iteration times keep the
// paper's 3 s / 14 s / 70 s profile in virtual time).
package cluster

import (
	"fmt"
	"time"

	"specsync/internal/data"
	"specsync/internal/model"
	"specsync/internal/optimizer"
)

// Workload bundles a model with its training profile. In a run spec it is a
// name (WorkloadByName) plus optional overrides of the four tagged fields.
type Workload struct {
	// Name identifies the workload ("mf", "cifar10", "imagenet").
	Name string `json:"name"`
	// Model is the trainable workload, pre-sharded for the worker count.
	Model model.Model `json:"-"`
	// IterTime is the nominal compute time per iteration (Table I).
	IterTime time.Duration `json:"iter_time"`
	// JitterSigma is the default lognormal compute-time variation.
	JitterSigma float64 `json:"jitter_sigma"`
	// Schedule is the server-side learning-rate schedule.
	Schedule optimizer.Schedule `json:"-"`
	// Momentum is the server-side momentum (0 for sparse MF).
	Momentum float64 `json:"momentum"`
	// Clip is the per-push gradient-norm clip (0 = off).
	Clip float64 `json:"-"`
	// TargetLoss defines convergence: eval loss below this for 5
	// consecutive probes.
	TargetLoss float64 `json:"target_loss"`
	// EvalEvery is the probe interval.
	EvalEvery time.Duration `json:"-"`
	// DatasetSize is the number of training samples/ratings (Table I).
	DatasetSize int `json:"-"`
	// BatchSize is the per-iteration minibatch size (Table I).
	BatchSize int `json:"-"`
}

// Validate reports profile errors.
func (w Workload) Validate() error {
	if w.Model == nil {
		return fmt.Errorf("cluster: workload %q has nil model", w.Name)
	}
	if w.IterTime <= 0 || w.EvalEvery <= 0 {
		return fmt.Errorf("cluster: workload %q has non-positive timing", w.Name)
	}
	if w.Schedule == nil {
		return fmt.Errorf("cluster: workload %q has nil schedule", w.Name)
	}
	return nil
}

// Size selects the workload scale.
type Size int

// Workload sizes.
const (
	// SizeFull is the scale used by the experiment harness.
	SizeFull Size = iota + 1
	// SizeSmall is a reduced scale for unit tests and quick benchmarks.
	SizeSmall
)

// NewMF builds the MovieLens-substitute matrix-factorization workload
// (Table I row 1: 4.2M params, 3 s iterations — here (users+items)*rank
// params at the same iteration profile).
func NewMF(size Size, workers int, seed int64) (Workload, error) {
	users, items, rank := 1200, 900, 20
	n, evalN, batch := 60000, 2000, 1000
	if size == SizeSmall {
		users, items, rank = 120, 90, 8
		n, evalN, batch = 6000, 400, 200
	}
	ratings, err := data.NewRatings(data.RatingsConfig{
		Users: users, Items: items, TrueRank: rank / 2,
		N: n, EvalN: evalN, Noise: 0.1, Seed: seed,
	})
	if err != nil {
		return Workload{}, err
	}
	shards, err := data.ShardRatings(ratings.Train, workers, false, seed+1)
	if err != nil {
		return Workload{}, err
	}
	mf, err := model.NewMF(model.MFConfig{
		Name: "mf", Rank: rank, BatchSize: batch, L2: 0.02, InitScale: 0.15,
	}, users, items, shards, ratings.Eval)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:        "mf",
		Model:       mf,
		IterTime:    3 * time.Second,
		JitterSigma: 0.25,
		Schedule:    optimizer.Const(0.35),
		Clip:        5,
		TargetLoss:  0.15,
		EvalEvery:   2 * time.Second,
		DatasetSize: n,
		BatchSize:   batch,
	}, nil
}

// NewCIFAR builds the CIFAR-10 substitute (Table I row 2: ResNet-110,
// 14 s iterations — here an MLP on a 10-class synthetic image-feature
// dataset, non-IID sharded, with the paper's step-decay schedule shape).
func NewCIFAR(size Size, workers int, seed int64) (Workload, error) {
	classes, dim, hidden := 10, 64, 96
	n, evalN, batch := 10000, 500, 64
	if size == SizeSmall {
		dim, hidden = 32, 32
		n, evalN, batch = 4000, 300, 64
	}
	blobs, err := data.NewBlobs(data.BlobsConfig{
		Classes: classes, Dim: dim, N: n, EvalN: evalN,
		Spread: 1.0, Noise: 1.0, ScaleSpread: 6, Seed: seed,
	})
	if err != nil {
		return Workload{}, err
	}
	shards, err := data.ShardSamples(blobs.Train, workers, false, seed+1)
	if err != nil {
		return Workload{}, err
	}
	mlp, err := model.NewMLP(model.MLPConfig{
		Name: "cifar10", Hidden: hidden, BatchSize: batch, L2: 1e-4,
	}, classes, dim, shards, blobs.Eval)
	if err != nil {
		return Workload{}, err
	}
	wl := Workload{
		Name:        "cifar10",
		Model:       mlp,
		IterTime:    14 * time.Second,
		JitterSigma: 0.35,
		Schedule:    optimizer.Const(0.2),
		Momentum:    0.9,
		Clip:        10,
		TargetLoss:  0.30,
		EvalEvery:   14 * time.Second,
		DatasetSize: n,
		BatchSize:   batch,
	}
	if size == SizeSmall {
		// The reduced model is easier to destabilize; calibrated safe
		// settings for tests/quick benches at small worker counts.
		wl.Schedule = optimizer.Const(0.03)
		wl.Momentum = 0.8
		wl.TargetLoss = 0.8
	}
	return wl, nil
}

// NewImageNet builds the ImageNet substitute (Table I row 3: ResNet-18,
// 70 s iterations — here a wider/deeper-feature MLP over 100 classes).
func NewImageNet(size Size, workers int, seed int64) (Workload, error) {
	classes, dim, hidden := 50, 128, 96
	n, evalN, batch := 15000, 500, 64
	if size == SizeSmall {
		classes, dim, hidden = 20, 48, 32
		n, evalN, batch = 5000, 300, 64
	}
	blobs, err := data.NewBlobs(data.BlobsConfig{
		Classes: classes, Dim: dim, N: n, EvalN: evalN,
		Spread: 1.0, Noise: 1.1, ScaleSpread: 6, Seed: seed,
	})
	if err != nil {
		return Workload{}, err
	}
	shards, err := data.ShardSamples(blobs.Train, workers, false, seed+1)
	if err != nil {
		return Workload{}, err
	}
	mlp, err := model.NewMLP(model.MLPConfig{
		Name: "imagenet", Hidden: hidden, BatchSize: batch, L2: 1e-4,
	}, classes, dim, shards, blobs.Eval)
	if err != nil {
		return Workload{}, err
	}
	wl := Workload{
		Name:        "imagenet",
		Model:       mlp,
		IterTime:    70 * time.Second,
		JitterSigma: 0.35,
		Schedule:    optimizer.Const(0.03), // paper fixes the rate; calibrated for this substrate
		Momentum:    0.8,
		Clip:        10,
		TargetLoss:  0.5,
		EvalEvery:   70 * time.Second,
		DatasetSize: n,
		BatchSize:   batch,
	}
	if size == SizeSmall {
		wl.Schedule = optimizer.Const(0.03)
		wl.Momentum = 0.8
		wl.TargetLoss = 1.6
	}
	return wl, nil
}

// NewTiny builds a fast linear-regression workload for unit tests.
func NewTiny(workers int, seed int64) (Workload, error) {
	lr, err := model.NewLinReg(model.LinRegConfig{
		Dim: 24, N: 2000, EvalN: 300, Shards: workers, Noise: 0.1,
		BatchSize: 32, Seed: seed,
	})
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name:        "tiny",
		Model:       lr,
		IterTime:    time.Second,
		JitterSigma: 0.2,
		Schedule:    optimizer.Const(0.05),
		Clip:        50,
		TargetLoss:  0.05,
		EvalEvery:   time.Second,
		DatasetSize: 2000,
		BatchSize:   32,
	}, nil
}

// InstanceSpeeds models the paper's heterogeneous Cluster 2 (10 each of
// m3.xlarge, m3.2xlarge, m4.xlarge, m4.2xlarge): per-instance speed ratios
// (4-vCPU m3 : 8-vCPU m3 : 4-vCPU m4 : 8-vCPU m4), assigned round-robin and
// normalized to unit mean so the heterogeneous cluster has the same
// aggregate compute as the homogeneous one — isolating the effect of speed
// *mismatch* from the effect of simply having more cores.
func InstanceSpeeds(workers int) []float64 {
	types := []float64{0.9, 1.8, 1.0, 2.0}
	out := make([]float64, workers)
	var sum float64
	for i := range out {
		out[i] = types[i%len(types)]
		sum += out[i]
	}
	mean := sum / float64(workers)
	for i := range out {
		out[i] /= mean
	}
	return out
}

// UniformSpeeds models the homogeneous Cluster 1 (all m4.xlarge).
func UniformSpeeds(workers int) []float64 {
	out := make([]float64, workers)
	for i := range out {
		out[i] = 1.0
	}
	return out
}
