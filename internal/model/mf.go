package model

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"specsync/internal/data"
	"specsync/internal/sparse"
	"specsync/internal/tensor"
)

// MF is L2-regularized matrix factorization for recommendation: it learns
// user factors P (Users x Rank) and item factors Q (Items x Rank) minimizing
//
//	sum over observed (u,i,r):  (r - p_u . q_i)^2 + lambda (|p_u|^2 + |q_i|^2)
//
// Parameter layout (flat): [ P row-major | Q row-major ]. A minibatch only
// touches the factor rows of the users/items it contains, so gradients are
// sparse — this is the sparse-update workload of the paper (MovieLens).
type MF struct {
	name      string
	users     int
	items     int
	rank      int
	l2        float64
	shards    [][]data.Rating
	batches   []batch[data.Rating]
	eval      []data.Rating
	initScale float64
	grads     sync.Pool // of *mfGrad
}

// mfGrad is the storage behind one sparse gradient: the vector, each rating's
// error, and the (factor row, position in the batch) sort keys.
type mfGrad struct {
	vec     sparse.Vec
	errs    []float64
	keys    []uint64
	release func()
}

var _ Model = (*MF)(nil)

// MFConfig configures a matrix-factorization workload.
type MFConfig struct {
	Name      string
	Rank      int
	BatchSize int
	L2        float64
	InitScale float64 // stddev of initial factors; 0 means 0.1
}

// NewMF builds the workload over pre-sharded ratings.
func NewMF(cfg MFConfig, users, items int, shards [][]data.Rating, eval []data.Rating) (*MF, error) {
	if users < 1 || items < 1 || cfg.Rank < 1 {
		return nil, fmt.Errorf("model: bad MF shape users=%d items=%d rank=%d", users, items, cfg.Rank)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("model: batch size %d < 1", cfg.BatchSize)
	}
	if len(shards) == 0 || len(eval) == 0 {
		return nil, fmt.Errorf("model: MF needs shards and eval data")
	}
	scale := cfg.InitScale
	if scale == 0 {
		scale = 0.1
	}
	name := cfg.Name
	if name == "" {
		name = "mf"
	}
	return &MF{
		name:      name,
		users:     users,
		items:     items,
		rank:      cfg.Rank,
		l2:        cfg.L2,
		shards:    shards,
		batches:   batchStorage(shards, cfg.BatchSize),
		eval:      eval,
		initScale: scale,
	}, nil
}

// Name implements Model.
func (m *MF) Name() string { return m.name }

// Dim implements Model.
func (m *MF) Dim() int { return (m.users + m.items) * m.rank }

// NumShards implements Model.
func (m *MF) NumShards() int { return len(m.shards) }

// Init implements Model.
func (m *MF) Init(rng *rand.Rand) tensor.Vec {
	w := tensor.NewVec(m.Dim())
	tensor.RandNormal(w, m.initScale, rng)
	return w
}

// userRow returns the base flat index of user u's factor row.
func (m *MF) userRow(u int) int { return u * m.rank }

// itemRow returns the base flat index of item i's factor row.
func (m *MF) itemRow(i int) int { return (m.users + i) * m.rank }

// SampleBatch implements Model.
func (m *MF) SampleBatch(shard int, rng *rand.Rand) Batch {
	return m.batches[shard].draw(m.shards[shard], rng)
}

// predict returns p_u . q_i under parameters w.
func (m *MF) predict(w tensor.Vec, u, i int) float64 {
	pu := w[m.userRow(u) : m.userRow(u)+m.rank]
	qi := w[m.itemRow(i) : m.itemRow(i)+m.rank]
	return tensor.Dot(pu, qi)
}

// Grad implements Model. For each observed rating with error e = pred - r:
//
//	d/dp_u = 2 e q_i + 2 lambda p_u,   d/dq_i = 2 e p_u + 2 lambda q_i
//
// averaged over the batch and accumulated sparsely: the batch's 2 x len factor
// rows are sorted by row and then by position in the batch, and each distinct
// row becomes rank consecutive entries that start at 0 and take that row's
// contributions in batch order.
func (m *MF) Grad(w tensor.Vec, b Batch) Update {
	rb, ok := b.(*batch[data.Rating])
	if !ok {
		panic(fmt.Sprintf("model: MF got batch type %T", b))
	}
	g, _ := m.grads.Get().(*mfGrad)
	if g == nil {
		g = &mfGrad{}
		g.release = func() { m.grads.Put(g) }
	}
	errs, keys := g.errs[:0], g.keys[:0]
	for i, rt := range rb.items {
		ub, ib := m.userRow(rt.User), m.itemRow(rt.Item)
		errs = append(errs, tensor.Dot(w[ub:ub+m.rank], w[ib:ib+m.rank])-rt.Value)
		keys = append(keys, uint64(ub)<<32|uint64(i), uint64(ib)<<32|uint64(i))
	}
	slices.Sort(keys)

	idx, val := g.vec.Idx[:0], g.vec.Val[:0]
	inv := 1.0 / float64(len(rb.items))
	for _, key := range keys {
		base, i := int(key>>32), int(uint32(key))
		if len(idx) == 0 || idx[len(idx)-m.rank] != int32(base) {
			for r := 0; r < m.rank; r++ {
				idx = append(idx, int32(base+r))
				val = append(val, 0)
			}
		}
		// A user's row was multiplied with the item's, and the other way round.
		ob := m.itemRow(rb.items[i].Item)
		if ob == base {
			ob = m.userRow(rb.items[i].User)
		}
		own, other := w[base:base+m.rank], w[ob:ob+m.rank]
		acc, e := val[len(val)-m.rank:], errs[i]
		for r := range acc {
			// The conversion rounds the contribution before it is added, on
			// every architecture: a fused multiply-add would not.
			acc[r] += float64((2*e*other[r] + 2*m.l2*own[r]) * inv)
		}
	}
	g.errs, g.keys, g.vec = errs, keys, sparse.Vec{Idx: idx, Val: val}
	return Update{Sparse: &g.vec, release: g.release}
}

// BatchLoss implements Model.
func (m *MF) BatchLoss(w tensor.Vec, b Batch) float64 {
	rb, ok := b.(*batch[data.Rating])
	if !ok {
		panic(fmt.Sprintf("model: MF got batch type %T", b))
	}
	return m.meanLoss(w, rb.items)
}

// EvalLoss implements Model. Evaluation reports plain mean squared error
// (no regularization term), matching how recommender quality is tracked.
func (m *MF) EvalLoss(w tensor.Vec) float64 {
	var total float64
	for _, rt := range m.eval {
		e := m.predict(w, rt.User, rt.Item) - rt.Value
		total += e * e
	}
	return total / float64(len(m.eval))
}

func (m *MF) meanLoss(w tensor.Vec, ratings []data.Rating) float64 {
	var total float64
	for _, rt := range ratings {
		ub := m.userRow(rt.User)
		ib := m.itemRow(rt.Item)
		pu := w[ub : ub+m.rank]
		qi := w[ib : ib+m.rank]
		e := tensor.Dot(pu, qi) - rt.Value
		total += e*e + m.l2*(tensor.Dot(pu, pu)+tensor.Dot(qi, qi))
	}
	return total / float64(len(ratings))
}
