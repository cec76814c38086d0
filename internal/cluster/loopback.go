package cluster

import (
	"fmt"
	"time"

	"specsync/internal/live"
	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/ps"
	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// RunLoopback runs cfg as a live cluster in this process: every node of
// Build on its own TCP endpoint on 127.0.0.1 (live.Loopback), in wall-clock
// time. A probe node pulls every shard each Workload.EvalEvery, and the run
// stops on Run's convergence rule, once every worker has stopped
// (MaxItersPerWorker), or when MaxVirtual of wall time has passed. The
// Result is read off the stopped nodes by the same code as Run's; its times
// are wall-clock times. The spec must pass ValidateTCP; its warning goes to
// cfg.Debug.
func RunLoopback(cfg Config) (*Result, error) {
	res, _, err := runLoopback(cfg)
	return res, err
}

func runLoopback(cfg Config) (*Result, *Nodes, error) {
	warning, err := cfg.ValidateTCP()
	if err != nil {
		return nil, nil, err
	}
	if warning != "" && cfg.Debug != nil {
		fmt.Fprintln(cfg.Debug, "cluster:", warning)
	}
	n, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg = n.cfg
	pr := &probe{ranges: n.ranges, answered: make([]bool, len(n.ranges)), out: make(chan tensor.Vec, 1)}
	handlers := map[node.ID]node.Handler{node.ProbeID: pr}
	for _, id := range n.IDs() {
		if handlers[id], err = n.Handler(id); err != nil {
			return nil, nil, err
		}
	}
	lb, err := live.NewLoopback(n.HostConfig(), handlers)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res := &Result{}
	c := &curve{n: n, res: res}
	evalTick := time.NewTicker(cfg.Workload.EvalEvery)
	defer evalTick.Stop()
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	deadline := time.NewTimer(cfg.MaxVirtual)
	defer deadline.Stop()
	for done := false; !done; {
		select {
		case <-evalTick.C:
			lb.Host(node.ProbeID).Inject(node.ProbeID, &msg.Start{})
		case w := <-pr.out:
			done = c.observe(time.Since(start), w)
		case <-poll.C:
			done = n.workersStopped()
		case <-deadline.C:
			done = true
		}
	}
	// Give every backup a moment to apply what its primary forwarded, so the
	// replicated-push tally is complete.
	for settle := time.Now(); !n.replicasCaughtUp() && time.Since(settle) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	lb.Close() // no handler runs again: the nodes may be read
	res.Elapsed = time.Since(start)
	c.observe(res.Elapsed, n.assemble())
	n.result(res)
	return res, n, nil
}

// workersStopped reports whether every worker has reached its iteration
// budget. Safe while the nodes run.
func (n *Nodes) workersStopped() bool {
	for _, wk := range n.workers {
		if wk != nil && !wk.Stopped() {
			return false
		}
	}
	return true
}

// replicasCaughtUp reports whether every backup has applied as many pushes
// as its primary. Safe while the nodes run.
func (n *Nodes) replicasCaughtUp() bool {
	for shard, reps := range n.replicas {
		for _, rep := range reps {
			if rep.Version() != n.servers[shard].Version() {
				return false
			}
		}
	}
	return true
}

// probe is a read-only member of a loopback cluster: each Start it receives
// pulls every shard over the protocol, and it hands the assembled
// parameters to the runner.
type probe struct {
	ctx      node.Context
	ranges   []ps.Range
	seq      uint64
	answered []bool
	left     int
	w        tensor.Vec
	out      chan tensor.Vec
}

func (p *probe) Init(ctx node.Context) { p.ctx = ctx }

func (p *probe) Receive(from node.ID, m wire.Message) {
	switch m := m.(type) {
	case *msg.Start:
		p.seq++
		clear(p.answered)
		p.left = len(p.ranges)
		p.w = tensor.NewVec(p.ranges[len(p.ranges)-1].Hi)
		for i := range p.ranges {
			p.ctx.Send(node.ServerID(i), &msg.PullReq{Seq: p.seq})
		}
	case *msg.PullResp:
		si := node.ServerIndex(from)
		if m.Seq != p.seq || si < 0 || si >= len(p.ranges) || p.answered[si] || len(m.Values) != p.ranges[si].Len() {
			return
		}
		copy(p.w[p.ranges[si].Lo:], m.Values) // the message is recycled after Receive
		p.answered[si] = true
		if p.left--; p.left == 0 {
			select {
			case p.out <- p.w:
			default: // the runner has not taken the last one yet
			}
		}
	}
}
