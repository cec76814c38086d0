package model

import (
	"fmt"
	"math/rand"

	"specsync/internal/data"
	"specsync/internal/tensor"
)

// Softmax is multinomial logistic regression with a bias term: the linear
// classifier P(y=k|x) = softmax(W x + b)_k trained with cross-entropy loss.
// Parameters are laid out as K rows of (Dim features + 1 bias).
type Softmax struct {
	name      string
	classes   int
	dim       int
	l2        float64
	shards    [][]data.Sample
	batches   []batch[data.Sample]
	eval      []data.Sample
	initScale float64
	grads     densePool
}

var _ Model = (*Softmax)(nil)

// SoftmaxConfig configures a Softmax workload.
type SoftmaxConfig struct {
	Name      string
	BatchSize int
	L2        float64 // L2 regularization strength (per-sample)
	InitScale float64 // stddev of initial weights; 0 means 0.01
}

// NewSoftmax builds the workload over pre-sharded training data.
func NewSoftmax(cfg SoftmaxConfig, classes, dim int, shards [][]data.Sample, eval []data.Sample) (*Softmax, error) {
	if classes < 2 || dim < 1 {
		return nil, fmt.Errorf("model: bad softmax shape %dx%d", classes, dim)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: batch size %d < 1", cfg.BatchSize)
	}
	if len(shards) == 0 || len(eval) == 0 {
		return nil, fmt.Errorf("model: softmax needs shards and eval data")
	}
	scale := cfg.InitScale
	if scale == 0 {
		scale = 0.01
	}
	name := cfg.Name
	if name == "" {
		name = "softmax"
	}
	return &Softmax{
		name:      name,
		classes:   classes,
		dim:       dim,
		l2:        cfg.L2,
		shards:    shards,
		batches:   batchStorage(shards, cfg.BatchSize),
		eval:      eval,
		initScale: scale,
	}, nil
}

// Name implements Model.
func (s *Softmax) Name() string { return s.name }

// Dim implements Model.
func (s *Softmax) Dim() int { return s.classes * (s.dim + 1) }

// NumShards implements Model.
func (s *Softmax) NumShards() int { return len(s.shards) }

// Init implements Model.
func (s *Softmax) Init(rng *rand.Rand) tensor.Vec {
	w := tensor.NewVec(s.Dim())
	tensor.RandNormal(w, s.initScale, rng)
	return w
}

// SampleBatch implements Model.
func (s *Softmax) SampleBatch(shard int, rng *rand.Rand) Batch {
	return s.batches[shard].draw(s.shards[shard], rng)
}

// logits computes W x + b for up to block samples: sample j's logits are the
// j-th classes-sized piece of out.
func (s *Softmax) logits(w tensor.Vec, blk []data.Sample, out tensor.Vec) {
	var xs [block]tensor.Vec
	for j, smp := range blk {
		xs[j] = smp.X
	}
	affine(tensor.MatOver(s.classes, s.dim+1, w), xs[:len(blk)], out)
}

// Grad implements Model. The gradient of cross-entropy through softmax is
// (p - onehot(y)) x^T per sample, averaged over the batch.
func (s *Softmax) Grad(w tensor.Vec, b Batch) Update {
	sb, ok := b.(*batch[data.Sample])
	if !ok {
		panic(fmt.Sprintf("model: softmax got batch type %T", b))
	}
	pooled := s.grads.get(s.Dim(), block*s.classes)
	g := pooled.vec
	stride := s.dim + 1
	inv := 1.0 / float64(len(sb.items))
	for i := 0; i < len(sb.items); i += block {
		blk := sb.items[i:min(i+block, len(sb.items))]
		s.logits(w, blk, pooled.scratch)
		for j, smp := range blk {
			probs := pooled.scratch[j*s.classes : (j+1)*s.classes]
			tensor.Softmax(probs, probs)
			probs[smp.Y] -= 1 // p - onehot
			for k := 0; k < s.classes; k++ {
				c := probs[k] * inv
				if c == 0 {
					continue
				}
				row := g[k*stride : (k+1)*stride]
				for d, xv := range smp.X {
					row[d] += c * xv
				}
				row[s.dim] += c
			}
		}
	}
	if s.l2 > 0 {
		tensor.Axpy(g, s.l2, w)
	}
	return pooled.update()
}

// BatchLoss implements Model.
func (s *Softmax) BatchLoss(w tensor.Vec, b Batch) float64 {
	sb, ok := b.(*batch[data.Sample])
	if !ok {
		panic(fmt.Sprintf("model: softmax got batch type %T", b))
	}
	return s.meanLoss(w, sb.items)
}

// EvalLoss implements Model.
func (s *Softmax) EvalLoss(w tensor.Vec) float64 { return s.meanLoss(w, s.eval) }

func (s *Softmax) meanLoss(w tensor.Vec, samples []data.Sample) float64 {
	out := tensor.NewVec(block * s.classes)
	var total float64
	for i := 0; i < len(samples); i += block {
		blk := samples[i:min(i+block, len(samples))]
		s.logits(w, blk, out)
		for j, smp := range blk {
			logits := out[j*s.classes : (j+1)*s.classes]
			total += tensor.LogSumExp(logits) - logits[smp.Y]
		}
	}
	loss := total / float64(len(samples))
	if s.l2 > 0 {
		loss += 0.5 * s.l2 * tensor.Dot(w, w)
	}
	return loss
}

// GradNormAt returns the Euclidean norm of the full-eval-set gradient at w;
// used by tests to confirm optimizers approach a stationary point.
func (s *Softmax) GradNormAt(w tensor.Vec) float64 {
	u := s.Grad(w, &batch[data.Sample]{items: s.eval})
	return tensor.Norm2(u.Dense)
}
