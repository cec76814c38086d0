package model

import (
	"fmt"
	"math/rand"

	"specsync/internal/tensor"
)

// LinReg is least-squares linear regression on synthetic data generated from
// a hidden weight vector plus noise. Its loss surface is an exactly convex
// quadratic, which makes it the reference workload for optimizer and
// convergence tests: SGD must reach the noise floor, and the distance to the
// known ground-truth weights is directly measurable.
type LinReg struct {
	name    string
	dim     int
	truth   tensor.Vec
	shards  [][]regSample
	batches []batch[regSample]
	eval    []regSample
	grads   densePool
}

var _ Model = (*LinReg)(nil)

type regSample struct {
	x []float64
	y float64
}

// LinRegConfig configures a linear-regression workload.
type LinRegConfig struct {
	Name      string
	Dim       int
	N         int     // training samples (split across shards)
	EvalN     int     // held-out samples
	Shards    int     // number of data shards
	Noise     float64 // observation noise stddev
	BatchSize int
	Seed      int64
}

// NewLinReg generates data and builds the workload.
func NewLinReg(cfg LinRegConfig) (*LinReg, error) {
	if cfg.Dim < 1 || cfg.N < cfg.Shards || cfg.EvalN < 1 || cfg.Shards < 1 || cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: invalid linreg config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := tensor.NewVec(cfg.Dim)
	tensor.RandNormal(truth, 1, rng)

	draw := func(n int) []regSample {
		out := make([]regSample, n)
		for i := range out {
			x := make([]float64, cfg.Dim)
			for d := range x {
				x[d] = rng.NormFloat64()
			}
			out[i] = regSample{x: x, y: tensor.Dot(truth, x) + rng.NormFloat64()*cfg.Noise}
		}
		return out
	}
	train := draw(cfg.N)
	shards := make([][]regSample, cfg.Shards)
	per := len(train) / cfg.Shards
	for s := range shards {
		lo := s * per
		hi := lo + per
		if s == cfg.Shards-1 {
			hi = len(train)
		}
		shards[s] = train[lo:hi]
	}
	name := cfg.Name
	if name == "" {
		name = "linreg"
	}
	return &LinReg{
		name:    name,
		dim:     cfg.Dim,
		truth:   truth,
		shards:  shards,
		batches: batchStorage(shards, cfg.BatchSize),
		eval:    draw(cfg.EvalN),
	}, nil
}

// Name implements Model.
func (l *LinReg) Name() string { return l.name }

// Dim implements Model.
func (l *LinReg) Dim() int { return l.dim }

// NumShards implements Model.
func (l *LinReg) NumShards() int { return len(l.shards) }

// Init implements Model.
func (l *LinReg) Init(rng *rand.Rand) tensor.Vec {
	w := tensor.NewVec(l.dim)
	tensor.RandNormal(w, 0.01, rng)
	return w
}

// SampleBatch implements Model.
func (l *LinReg) SampleBatch(shard int, rng *rand.Rand) Batch {
	return l.batches[shard].draw(l.shards[shard], rng)
}

// residuals returns w.x - y for the samples in blk, a full block through the
// blocked kernel and a shorter tail one sample at a time.
func residuals(w tensor.Vec, blk []regSample) (e [block]float64) {
	if len(blk) == block {
		e[0], e[1], e[2], e[3] = tensor.Dot4(w, blk[0].x, blk[1].x, blk[2].x, blk[3].x)
	} else {
		for j, s := range blk {
			e[j] = tensor.Dot(w, s.x)
		}
	}
	for j, s := range blk {
		e[j] -= s.y
	}
	return e
}

// Grad implements Model: d/dw mean (w.x - y)^2 = mean 2 (w.x - y) x.
func (l *LinReg) Grad(w tensor.Vec, b Batch) Update {
	rb, ok := b.(*batch[regSample])
	if !ok {
		panic(fmt.Sprintf("model: linreg got batch type %T", b))
	}
	pooled := l.grads.get(l.dim, 0)
	g := pooled.vec
	inv := 1.0 / float64(len(rb.items))
	for i := 0; i < len(rb.items); i += block {
		blk := rb.items[i:min(i+block, len(rb.items))]
		e := residuals(w, blk)
		if len(blk) == block {
			tensor.Axpy4(g, 2*e[0]*inv, blk[0].x, 2*e[1]*inv, blk[1].x, 2*e[2]*inv, blk[2].x, 2*e[3]*inv, blk[3].x)
			continue
		}
		for j, s := range blk {
			tensor.Axpy(g, 2*e[j]*inv, s.x)
		}
	}
	return pooled.update()
}

// BatchLoss implements Model.
func (l *LinReg) BatchLoss(w tensor.Vec, b Batch) float64 {
	rb, ok := b.(*batch[regSample])
	if !ok {
		panic(fmt.Sprintf("model: linreg got batch type %T", b))
	}
	return l.mse(w, rb.items)
}

// EvalLoss implements Model.
func (l *LinReg) EvalLoss(w tensor.Vec) float64 { return l.mse(w, l.eval) }

func (l *LinReg) mse(w tensor.Vec, samples []regSample) float64 {
	var total float64
	for i := 0; i < len(samples); i += block {
		blk := samples[i:min(i+block, len(samples))]
		e := residuals(w, blk)
		for j := range blk {
			total += e[j] * e[j]
		}
	}
	return total / float64(len(samples))
}

// DistanceToTruth returns |w - w*| where w* generated the data.
func (l *LinReg) DistanceToTruth(w tensor.Vec) float64 {
	d := w.Clone()
	tensor.Sub(d, l.truth)
	return tensor.Norm2(d)
}
