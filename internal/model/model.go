// Package model implements the machine-learning workloads from scratch:
// multinomial softmax regression and a one-hidden-layer MLP (substituting
// for the paper's ResNets on CIFAR-10/ImageNet), matrix factorization
// (the MovieLens recommender), and a linear-regression toy used in tests.
//
// Every model exposes minibatch gradients over a flat parameter vector so
// that parameters can be sharded across servers, and an evaluation loss on a
// held-out set used for convergence detection (paper: "loss staying below
// the target value for 5 consecutive iterations").
package model

import (
	"math/rand"
	"sync"

	"specsync/internal/sparse"
	"specsync/internal/tensor"
)

// Batch is an opaque minibatch handle; each model defines its own concrete
// batch type.
type Batch interface{}

// batch is one shard's minibatch storage, allocated once when the model is
// built. SampleBatch draws into it and hands out the pointer, so a draw
// allocates nothing and storing it in a Batch boxes nothing.
type batch[T any] struct{ items []T }

// batchStorage allocates every shard's batch: min(size, shard length) items.
func batchStorage[T any](shards [][]T, size int) []batch[T] {
	out := make([]batch[T], len(shards))
	for i, sh := range shards {
		out[i].items = make([]T, min(size, len(sh)))
	}
	return out
}

// draw fills b from shard, uniformly with replacement, one rng.Intn per item
// in item order.
func (b *batch[T]) draw(shard []T, rng *rand.Rand) Batch {
	for i := range b.items {
		b.items[i] = shard[rng.Intn(len(shard))]
	}
	return b
}

// Update is a computed gradient, either dense or sparse (exactly one field
// is set). Sparse updates are produced by matrix factorization, whose
// minibatch touches only a few factor rows.
type Update struct {
	Dense  tensor.Vec
	Sparse *sparse.Vec
	// release returns the storage behind Dense or Sparse to the model that
	// computed the update; nil for an update built by hand.
	release func()
}

// IsSparse reports whether the update uses the sparse representation.
func (u Update) IsSparse() bool { return u.Sparse != nil }

// Release hands the update's storage back to the model that computed it,
// which reuses it for a later Grad: call it at most once, and do not touch
// Dense or Sparse afterwards. Releasing is optional — an update that is never
// released is left to the GC — and does nothing for an update built by hand.
func (u Update) Release() {
	if u.release != nil {
		u.release()
	}
}

// densePool hands out one model's dense gradients, zeroed, together with the
// forward-pass scratch of the Grad that fills them, and takes both back
// through Update.Release. The zero value is ready to use; models that embed it
// must not be copied.
type densePool struct{ pool sync.Pool }

type denseGrad struct {
	vec tensor.Vec
	// scratch comes back as the last Grad left it: a model writes every
	// element it is going to read.
	scratch tensor.Vec
	release func() // made once per vector, so Grad allocates nothing
}

func (p *densePool) get(dim, scratch int) *denseGrad {
	g, _ := p.pool.Get().(*denseGrad)
	if g == nil {
		g = &denseGrad{vec: tensor.NewVec(dim), scratch: tensor.NewVec(scratch)}
		g.release = func() { p.pool.Put(g) }
	} else {
		g.vec.Zero()
	}
	return g
}

func (g *denseGrad) update() Update { return Update{Dense: g.vec, release: g.release} }

// block is how many samples a forward pass takes at once: the width of
// tensor.Dot4.
const block = 4

// affine applies one layer to up to block inputs: out[j*w.Rows+r] is row r of
// w times [xs[j]; 1], the last column of w being the bias. A full block goes
// through Dot4, a batch's tail of 1-3 samples through Dot; every model's
// forward pass is made of these and of nothing else that multiplies.
func affine(w tensor.Mat, xs []tensor.Vec, out tensor.Vec) {
	in := w.Cols - 1
	if len(xs) == block {
		o0, o1, o2, o3 := out[:w.Rows], out[w.Rows:2*w.Rows], out[2*w.Rows:3*w.Rows], out[3*w.Rows:4*w.Rows]
		for r := range o0 {
			row := w.Row(r)
			z0, z1, z2, z3 := tensor.Dot4(row[:in], xs[0], xs[1], xs[2], xs[3])
			b := row[in]
			o0[r], o1[r], o2[r], o3[r] = z0+b, z1+b, z2+b, z3+b
		}
		return
	}
	for j, x := range xs {
		o := out[j*w.Rows : (j+1)*w.Rows]
		for r := range o {
			row := w.Row(r)
			o[r] = tensor.Dot(row[:in], x) + row[in]
		}
	}
}

// Model is a trainable workload bound to its (sharded) dataset.
type Model interface {
	// Name identifies the workload in logs and reports.
	Name() string
	// Dim is the length of the flat parameter vector.
	Dim() int
	// NumShards is the number of data shards (one per worker).
	NumShards() int
	// Init returns a fresh parameter vector drawn with rng.
	Init(rng *rand.Rand) tensor.Vec
	// SampleBatch draws a minibatch from the given shard. The batch is the
	// model's storage, not the caller's: it stays valid until the next
	// SampleBatch on the same shard, which overwrites it, so one shard must
	// not be drawn from by two callers at once.
	SampleBatch(shard int, rng *rand.Rand) Batch
	// Grad computes the average minibatch gradient of the loss at w.
	Grad(w tensor.Vec, b Batch) Update
	// BatchLoss computes the average loss of batch b at w (used by tests
	// and gradient checks).
	BatchLoss(w tensor.Vec, b Batch) float64
	// EvalLoss computes the held-out evaluation loss at w.
	EvalLoss(w tensor.Vec) float64
}
