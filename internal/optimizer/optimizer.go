// Package optimizer implements the server-side update rule of the parameter
// server. Following MXNet's kvstore design (which the paper builds on),
// workers push raw gradients and the server applies them:
//
//	w <- w - eta(t) * g    (optionally with momentum)
//
// The learning-rate schedule is keyed on the global push count, mirroring
// the paper's per-epoch decay (CIFAR-10: eta starts at 0.05 and decays at
// epochs 200 and 250), since one epoch equals one push from every worker.
package optimizer

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"specsync/internal/sparse"
	"specsync/internal/tensor"
)

// Schedule maps a global step (push count) to a learning rate.
type Schedule interface {
	// LR returns the learning rate at the given global step.
	LR(step int64) float64
}

// Const is a fixed learning rate.
type Const float64

var _ Schedule = Const(0)

// LR implements Schedule.
func (c Const) LR(int64) float64 { return float64(c) }

// Step decays a base rate by Factor at each boundary step.
type Step struct {
	Base       float64
	Factor     float64 // multiplier applied at each boundary (e.g. 0.1)
	Boundaries []int64 // ascending global steps at which decay happens
}

var _ Schedule = (*Step)(nil)

// NewStep validates and builds a step-decay schedule.
func NewStep(base, factor float64, boundaries []int64) (*Step, error) {
	if base <= 0 || factor <= 0 || factor > 1 {
		return nil, fmt.Errorf("optimizer: bad step schedule base=%v factor=%v", base, factor)
	}
	if !sort.SliceIsSorted(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] }) {
		return nil, fmt.Errorf("optimizer: boundaries must be ascending: %v", boundaries)
	}
	bs := make([]int64, len(boundaries))
	copy(bs, boundaries)
	return &Step{Base: base, Factor: factor, Boundaries: bs}, nil
}

// LR implements Schedule.
func (s *Step) LR(step int64) float64 {
	lr := s.Base
	for _, b := range s.Boundaries {
		if step >= b {
			lr *= s.Factor
		} else {
			break
		}
	}
	return lr
}

// InvSqrt decays as Base / sqrt(1 + step/Scale), the classic SGD schedule
// that guarantees convergence on convex problems.
type InvSqrt struct {
	Base  float64
	Scale float64
}

var _ Schedule = (*InvSqrt)(nil)

// LR implements Schedule.
func (s *InvSqrt) LR(step int64) float64 {
	scale := s.Scale
	if scale <= 0 {
		scale = 1
	}
	return s.Base / math.Sqrt(1+float64(step)/scale)
}

// SGD applies pushed gradients to a parameter shard. Optionally uses
// heavy-ball momentum, which amplifies the damage done by stale gradients
// and is therefore interesting for the staleness experiments. SGD is not
// safe for concurrent use; the owning server serializes access.
type SGD struct {
	sched    Schedule
	momentum float64
	clip     float64 // max gradient L2 norm, 0 = off
	velocity tensor.Vec
	step     int64
	// clipped holds a sparse gradient's clipped values or its dense
	// expansion, so no push mutates the caller's buffer or allocates.
	clipped tensor.Vec
}

// SGDConfig configures an SGD optimizer instance.
type SGDConfig struct {
	Schedule Schedule
	Momentum float64 // 0 disables momentum
	Clip     float64 // max gradient norm per push, 0 disables clipping
}

// NewSGD builds the optimizer for a shard of the given dimension.
func NewSGD(cfg SGDConfig, dim int) (*SGD, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("optimizer: nil schedule")
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("optimizer: momentum %v outside [0,1)", cfg.Momentum)
	}
	if dim < 1 {
		return nil, fmt.Errorf("optimizer: dim %d < 1", dim)
	}
	o := &SGD{sched: cfg.Schedule, momentum: cfg.Momentum, clip: cfg.Clip}
	if cfg.Momentum > 0 {
		o.velocity = tensor.NewVec(dim)
	}
	return o, nil
}

// Step returns the number of updates applied so far.
func (o *SGD) Step() int64 { return o.step }

// SetStep overrides the global step counter. Shards use this to key the
// schedule on the *global* push count rather than their local one.
func (o *SGD) SetStep(s int64) { o.step = s }

// CurrentLR returns the learning rate the next update will use.
func (o *SGD) CurrentLR() float64 { return o.sched.LR(o.step) }

// ApplyDense performs w -= lr * g (with momentum/clipping if configured) and
// advances the step counter. It makes one pass: the clip factor comes from
// g's norm, and each coordinate is then scaled, folded into the velocity and
// applied, rounding after every operation exactly as the separate scale, add
// and axpy passes would (the float64 conversions forbid a fused multiply-add
// on every platform). g itself is only read: a replicated primary forwards it
// afterwards.
func (o *SGD) ApplyDense(w, g tensor.Vec) {
	if len(g) != len(w) {
		panic(fmt.Sprintf("optimizer: gradient length %d != parameters %d", len(g), len(w)))
	}
	lr := o.sched.LR(o.step)
	o.step++
	f := 1.0 // g*1 is g for every non-NaN g
	if o.clip > 0 {
		if n := tensor.Norm2(g); n > o.clip {
			f = o.clip / n
		}
	}
	if v := o.velocity; v != nil {
		// v <- mu*v + g ; w <- w - lr*v
		v = v[:len(w)]
		for i, gi := range g {
			vi := float64(v[i]*o.momentum) + float64(gi*f)
			v[i] = vi
			w[i] += float64(-lr * vi)
		}
		return
	}
	for i, gi := range g {
		w[i] += float64(-lr * float64(gi*f))
	}
}

// SparseInPlace reports whether ApplySparse writes only the coordinates the
// gradient lists. With momentum it writes every coordinate.
func (o *SGD) SparseInPlace() bool { return o.velocity == nil }

// scratch returns a copy of vals in the optimizer's reused clip buffer.
func (o *SGD) scratch(vals []float64) tensor.Vec {
	o.clipped = append(o.clipped[:0], vals...)
	return o.clipped
}

// ApplySparse performs the sparse analogue of ApplyDense, and leaves w (and
// the velocity) bit-identical to ApplyDense of g's dense expansion for a
// non-negative learning rate: it clips by ApplyDense's test and factor, and
// with momentum, which decays every coordinate anyway, it applies the
// expansion itself. Indices must be strictly increasing (sparse.Vec.Validate).
func (o *SGD) ApplySparse(w tensor.Vec, g sparse.Vec) {
	if o.velocity != nil {
		o.clipped = slices.Grow(o.clipped[:0], len(w))[:len(w)]
		clear(o.clipped)
		for j, ix := range g.Idx {
			o.clipped[ix] = g.Val[j]
		}
		o.ApplyDense(w, o.clipped)
		return
	}
	lr := o.sched.LR(o.step)
	o.step++
	if o.clip > 0 {
		if n := math.Sqrt(g.Norm2Sq()); n > o.clip {
			g.Val = o.scratch(g.Val) // the indices are only read
			g.Scale(o.clip / n)
		}
	}
	g.AddTo(w, -lr)
}
