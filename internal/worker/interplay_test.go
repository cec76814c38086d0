package worker

import (
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/scheme"
)

// TestSSPWithNaiveWait: the SSP gate is evaluated before the naive delay, so
// a blocked worker does not keep re-arming wait timers.
func TestSSPWithNaiveWait(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Scheme = scheme.Config{Base: scheme.SSP, Staleness: 1, NaiveWait: 100 * time.Millisecond}
	})
	h.start()
	h.sim.RunFor(20 * time.Second)
	// Staleness 1, released clock stuck at 0: iterations 0 and 1 only.
	if got := h.w.IterationsDone(); got != 2 {
		t.Fatalf("IterationsDone = %d, want 2", got)
	}
	// Each completed iteration paid the naive delay: first iteration cannot
	// have finished before delay + compute.
	h.sched.ctx.Send(node.WorkerID(0), &msg.Release{Clock: 1})
	h.sim.RunFor(3 * time.Second)
	if got := h.w.IterationsDone(); got != 3 {
		t.Errorf("IterationsDone = %d after clock advance, want 3", got)
	}
}

// TestReSyncDuringNaiveWaitIgnored: a re-sync arriving while the worker is
// still in its pre-pull delay (not computing) must not abort anything.
func TestReSyncDuringNaiveWaitIgnored(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Scheme = scheme.Config{Base: scheme.ASP, NaiveWait: 500 * time.Millisecond}
	})
	h.start()
	h.sim.RunFor(100 * time.Millisecond) // inside the first naive delay
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 0})
	h.sim.RunFor(5 * time.Second)
	if h.w.Aborts() != 0 {
		t.Errorf("abort during naive wait: %d", h.w.Aborts())
	}
	if h.w.IterationsDone() < 2 {
		t.Errorf("training stalled: %d iterations", h.w.IterationsDone())
	}
}

// TestDoubleStartIgnored: a duplicate Start (e.g. scheduler restart in live
// deployments) must not fork a second training loop.
func TestDoubleStartIgnored(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(100 * time.Millisecond)
	h.sched.ctx.Send(node.WorkerID(0), &msg.Start{})
	h.sim.RunFor(5 * time.Second)
	// One loop: iterations counted once, pulls == pushes + in-flight.
	if int(h.srv.pulls) > int(h.srv.pushes)+1 {
		t.Errorf("pulls %d vs pushes %d: double loop suspected", h.srv.pulls, h.srv.pushes)
	}
}

// TestAbortDuringAbortedPull: a second re-sync arriving while the worker is
// re-pulling (already aborted) is a no-op.
func TestAbortDuringAbortedPull(t *testing.T) {
	h := newHarness(t, nil)
	h.start()
	h.sim.RunFor(1200 * time.Millisecond) // computing iteration 1
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 1})
	h.sim.RunFor(1 * time.Millisecond) // now pulling again
	h.sched.ctx.Send(node.WorkerID(0), &msg.ReSync{Iter: 1})
	h.sim.RunFor(5 * time.Second)
	if got := h.w.Aborts(); got != 1 {
		t.Errorf("Aborts = %d, want exactly 1", got)
	}
	if h.w.IterationsDone() < 3 {
		t.Errorf("training stalled after double re-sync: %d", h.w.IterationsDone())
	}
}
