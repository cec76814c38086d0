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

// densePool hands out one model's dense gradients, zeroed, and takes them
// back through Update.Release. The zero value is ready to use; models that
// embed it must not be copied.
type densePool struct{ pool sync.Pool }

type denseGrad struct {
	vec     tensor.Vec
	release func() // made once per vector, so Grad allocates nothing
}

func (p *densePool) get(dim int) Update {
	g, _ := p.pool.Get().(*denseGrad)
	if g == nil {
		g = &denseGrad{vec: tensor.NewVec(dim)}
		g.release = func() { p.pool.Put(g) }
	} else {
		g.vec.Zero()
	}
	return Update{Dense: g.vec, release: g.release}
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
	// SampleBatch draws a minibatch from the given shard.
	SampleBatch(shard int, rng *rand.Rand) Batch
	// Grad computes the average minibatch gradient of the loss at w.
	Grad(w tensor.Vec, b Batch) Update
	// BatchLoss computes the average loss of batch b at w (used by tests
	// and gradient checks).
	BatchLoss(w tensor.Vec, b Batch) float64
	// EvalLoss computes the held-out evaluation loss at w.
	EvalLoss(w tensor.Vec) float64
}

// Accuracier is implemented by classification models that can report
// held-out accuracy in addition to loss.
type Accuracier interface {
	EvalAccuracy(w tensor.Vec) float64
}
