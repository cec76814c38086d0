package faults

import (
	"fmt"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// Sender is the outbound half of a transport (satisfied by *transport.TCP).
type Sender interface {
	Send(to node.ID, m wire.Message) error
}

// FaultSender decorates a Sender with a plan's message faults, for
// multi-process deployments where each node owns its own transport: drops
// swallow the message, duplicates send twice, delays defer the write to a
// timer goroutine. Safe for concurrent use if the inner Sender is.
type FaultSender struct {
	inner  Sender
	self   node.ID
	filter *Filter
	start  time.Time
}

// NewFaultSender wraps inner. The filter is shared state: build one per
// process from the same plan so every node draws from its own stream, or
// share one across in-process nodes.
func NewFaultSender(inner Sender, self node.ID, filter *Filter) *FaultSender {
	return &FaultSender{inner: inner, self: self, filter: filter, start: time.Now()}
}

// Send implements Sender with fault decoration. Delayed sends return nil
// immediately; a delayed write's error is unobservable, matching the
// fire-and-forget semantics of node.Context.Send.
func (s *FaultSender) Send(to node.ID, m wire.Message) error {
	act := s.filter.Action(s.self, to, m.Kind(), time.Since(s.start))
	if act.Drop {
		return nil
	}
	copies := 1
	if act.Duplicate {
		copies = 2
	}
	if act.Delay > 0 {
		// The caller may reuse m once Send returns (node.Context.Send), so
		// the timer writes a decoded copy.
		detached, err := msg.Registry().Unmarshal(wire.Marshal(m))
		if err != nil {
			return fmt.Errorf("faults: delay %s: %w", to, err)
		}
		m = detached
		for c := 0; c < copies; c++ {
			time.AfterFunc(act.Delay, func() { _ = s.inner.Send(to, m) })
		}
		return nil
	}
	var err error
	for c := 0; c < copies; c++ {
		if e := s.inner.Send(to, m); e != nil {
			err = e
		}
	}
	return err
}
