package model

import (
	"fmt"
	"math"
	"math/rand"

	"specsync/internal/data"
	"specsync/internal/tensor"
)

// MLP is a one-hidden-layer ReLU network trained with cross-entropy loss:
// logits = W2 * relu(W1 * [x;1]) + b2. It is the "deep" stand-in for the
// paper's residual networks: non-convex, with interacting layers, so stale
// gradients hurt it more than they hurt a linear model.
//
// Parameter layout (flat):
//
//	[ W1 (hidden x (dim+1)) | W2 (classes x (hidden+1)) ]
//
// where the +1 columns hold biases.
type MLP struct {
	name    string
	classes int
	dim     int
	hidden  int
	l2      float64
	shards  [][]data.Sample
	batches []batch[data.Sample]
	eval    []data.Sample
	grads   densePool
}

var _ Model = (*MLP)(nil)

// MLPConfig configures an MLP workload.
type MLPConfig struct {
	Name      string
	Hidden    int
	BatchSize int
	L2        float64
}

// NewMLP builds the workload over pre-sharded training data.
func NewMLP(cfg MLPConfig, classes, dim int, shards [][]data.Sample, eval []data.Sample) (*MLP, error) {
	if classes < 2 || dim < 1 || cfg.Hidden < 1 {
		return nil, fmt.Errorf("model: bad MLP shape classes=%d dim=%d hidden=%d", classes, dim, cfg.Hidden)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: batch size %d < 1", cfg.BatchSize)
	}
	if len(shards) == 0 || len(eval) == 0 {
		return nil, fmt.Errorf("model: MLP needs shards and eval data")
	}
	name := cfg.Name
	if name == "" {
		name = "mlp"
	}
	return &MLP{
		name:    name,
		classes: classes,
		dim:     dim,
		hidden:  cfg.Hidden,
		l2:      cfg.L2,
		shards:  shards,
		batches: batchStorage(shards, cfg.BatchSize),
		eval:    eval,
	}, nil
}

// Name implements Model.
func (m *MLP) Name() string { return m.name }

// Dim implements Model.
func (m *MLP) Dim() int {
	return m.hidden*(m.dim+1) + m.classes*(m.hidden+1)
}

// NumShards implements Model.
func (m *MLP) NumShards() int { return len(m.shards) }

// w1 and w2 view the flat parameter vector as the two weight matrices.
func (m *MLP) w1(w tensor.Vec) tensor.Mat {
	return tensor.MatOver(m.hidden, m.dim+1, w[:m.hidden*(m.dim+1)])
}

func (m *MLP) w2(w tensor.Vec) tensor.Mat {
	off := m.hidden * (m.dim + 1)
	return tensor.MatOver(m.classes, m.hidden+1, w[off:])
}

// Init implements Model: He initialization for the ReLU layer, small normal
// for the output layer.
func (m *MLP) Init(rng *rand.Rand) tensor.Vec {
	w := tensor.NewVec(m.Dim())
	he := math.Sqrt(2.0 / float64(m.dim))
	w1 := m.w1(w)
	for i := range w1.V {
		w1.V[i] = rng.NormFloat64() * he
	}
	w2 := m.w2(w)
	out := math.Sqrt(1.0 / float64(m.hidden))
	for i := range w2.V {
		w2.V[i] = rng.NormFloat64() * out
	}
	return w
}

// SampleBatch implements Model.
func (m *MLP) SampleBatch(shard int, rng *rand.Rand) Batch {
	return m.batches[shard].draw(m.shards[shard], rng)
}

// mlpScratch holds one block's forward pass: sample j's hidden
// pre-activations, activations and logits are the j-th piece of each vector.
// dHidden is the backward pass's one row.
type mlpScratch struct{ hPre, hAct, logits, dHidden tensor.Vec }

func (m *MLP) scratchLen() int { return block*(2*m.hidden+m.classes) + m.hidden }

func (m *MLP) scratch(buf tensor.Vec) mlpScratch {
	h, c := block*m.hidden, block*m.classes
	return mlpScratch{hPre: buf[:h], hAct: buf[h : 2*h], logits: buf[2*h : 2*h+c], dHidden: buf[2*h+c:]}
}

// at returns sample j's piece of each forward-pass vector.
func (s mlpScratch) at(m *MLP, j int) (hPre, hAct, logits tensor.Vec) {
	h, c := j*m.hidden, j*m.classes
	return s.hPre[h : h+m.hidden], s.hAct[h : h+m.hidden], s.logits[c : c+m.classes]
}

// forward runs up to block samples through both layers into s.
func (m *MLP) forward(w tensor.Vec, blk []data.Sample, s mlpScratch) {
	var buf [block]tensor.Vec
	xs := buf[:len(blk)]
	for j, smp := range blk {
		xs[j] = smp.X
	}
	affine(m.w1(w), xs, s.hPre)
	n := len(blk) * m.hidden
	tensor.Relu(s.hPre[:n], s.hAct[:n])
	for j := range xs {
		xs[j] = s.hAct[j*m.hidden : (j+1)*m.hidden]
	}
	affine(m.w2(w), xs, s.logits)
}

// Grad implements Model via manual backprop: the forward pass a block of
// samples at a time, the backward pass one sample at a time in batch order,
// which is the order the gradient's elements are summed in.
func (m *MLP) Grad(w tensor.Vec, b Batch) Update {
	sb, ok := b.(*batch[data.Sample])
	if !ok {
		panic(fmt.Sprintf("model: MLP got batch type %T", b))
	}
	pooled := m.grads.get(m.Dim(), m.scratchLen())
	g := pooled.vec
	g1 := m.w1(g)
	g2 := m.w2(g)
	w2 := m.w2(w)
	s := m.scratch(pooled.scratch)
	dHidden := s.dHidden
	inv := 1.0 / float64(len(sb.items))

	for i := 0; i < len(sb.items); i += block {
		blk := sb.items[i:min(i+block, len(sb.items))]
		m.forward(w, blk, s)
		for j, smp := range blk {
			hPre, hAct, logits := s.at(m, j)
			tensor.Softmax(logits, logits)
			logits[smp.Y] -= 1 // dL/dlogits = p - onehot

			// Output layer gradient and hidden backprop.
			dHidden.Zero()
			for k := 0; k < m.classes; k++ {
				dk := logits[k] * inv
				if dk == 0 {
					continue
				}
				row := g2.Row(k)
				for h := 0; h < m.hidden; h++ {
					row[h] += dk * hAct[h]
				}
				row[m.hidden] += dk
				tensor.Axpy(dHidden, dk, w2.Row(k)[:m.hidden])
			}
			// ReLU gate.
			for h := 0; h < m.hidden; h++ {
				if hPre[h] <= 0 {
					dHidden[h] = 0
				}
			}
			// Input layer gradient.
			for h := 0; h < m.hidden; h++ {
				dh := dHidden[h]
				if dh == 0 {
					continue
				}
				row := g1.Row(h)
				for d, xv := range smp.X {
					row[d] += dh * xv
				}
				row[m.dim] += dh
			}
		}
	}
	if m.l2 > 0 {
		tensor.Axpy(g, m.l2, w)
	}
	return pooled.update()
}

// BatchLoss implements Model.
func (m *MLP) BatchLoss(w tensor.Vec, b Batch) float64 {
	sb, ok := b.(*batch[data.Sample])
	if !ok {
		panic(fmt.Sprintf("model: MLP got batch type %T", b))
	}
	return m.meanLoss(w, sb.items)
}

// EvalLoss implements Model.
func (m *MLP) EvalLoss(w tensor.Vec) float64 { return m.meanLoss(w, m.eval) }

// meanLoss runs its forward passes in the scratch of a pooled gradient,
// which it hands back.
func (m *MLP) meanLoss(w tensor.Vec, samples []data.Sample) float64 {
	pooled := m.grads.get(m.Dim(), m.scratchLen())
	defer pooled.release()
	s := m.scratch(pooled.scratch)
	var total float64
	for i := 0; i < len(samples); i += block {
		blk := samples[i:min(i+block, len(samples))]
		m.forward(w, blk, s)
		for j, smp := range blk {
			_, _, logits := s.at(m, j)
			total += tensor.LogSumExp(logits) - logits[smp.Y]
		}
	}
	loss := total / float64(len(samples))
	if m.l2 > 0 {
		loss += 0.5 * m.l2 * tensor.Dot(w, w)
	}
	return loss
}
