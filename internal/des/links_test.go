package des

import (
	"math/rand"
	"testing"
	"time"

	"specsync/internal/node"
	"specsync/internal/obs"
	"specsync/internal/wire"
)

// msgKey names one message: its link and the sequence number its sender gave it.
type msgKey struct {
	from, to node.ID
	seq      int
}

// sent is one message as its sender handed it to the simulator.
type sent struct {
	msgKey
	bytes int
	at    time.Duration
}

// linkNet logs every send, in the order the simulator saw them, and every
// arrival.
type linkNet struct {
	sim     *Sim
	sends   []sent
	arrived map[msgKey]time.Duration
}

func (ln *linkNet) send(ctx node.Context, to node.ID, seq, size int) {
	m := &ping{Seq: seq, Payload: make([]byte, size)}
	ln.sends = append(ln.sends, sent{msgKey: msgKey{ctx.Self(), to, seq}, bytes: wire.EncodedSize(m), at: ln.sim.Elapsed()})
	ctx.Send(to, m)
}

// linkNode records what reaches it and, with reply set, answers each ping on
// its own link back.
type linkNode struct {
	net   *linkNet
	ctx   node.Context
	reply bool
}

func (n *linkNode) Init(ctx node.Context) { n.ctx = ctx }
func (n *linkNode) Receive(from node.ID, m wire.Message) {
	p := m.(*ping)
	n.net.arrived[msgKey{from, n.ctx.Self(), p.Seq}] = n.net.sim.Elapsed()
	if n.reply {
		n.net.send(n.ctx, from, p.Seq+1_000_000, len(p.Payload)/2)
	}
}

// TestLinkArrivalsMatchMapReference drives one sender with 301 peers through
// the bandwidth model — bursts that queue behind earlier ones on the same
// link, a peer that joins after Init, a peer that crashes with a message in
// flight and restarts, and the sender itself crashing and restarting — and
// requires every arrival at the time a busy-until map keyed by (sender,
// receiver), computed here from the send log, gives. Both incarnations of a
// node share its links: a link stays busy with what was sent before a crash.
func TestLinkArrivalsMatchMapReference(t *testing.T) {
	const (
		peers   = 300
		bps     = 1e6 // a byte a microsecond
		latency = 300 * time.Microsecond
	)
	s := newSim(t, Config{Seed: 1, Net: NetModel{Latency: latency, BytesPerSec: bps}})
	ln := &linkNet{sim: s, arrived: map[msgKey]time.Duration{}}
	hubID := node.ServerID(0)
	hub := &linkNode{net: ln}
	if err := s.AddNode(hubID, hub); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		if err := s.AddNode(node.WorkerID(i), &linkNode{net: ln, reply: true}); err != nil {
			t.Fatal(err)
		}
	}
	s.Init()

	rng := rand.New(rand.NewSource(7))
	seq, lostSeq, afterLoss := 0, 0, 0
	burst := func(to []int, maxSize int) {
		for _, w := range to {
			seq++
			ln.send(hub.ctx, node.WorkerID(w), seq, rng.Intn(maxSize))
		}
	}
	at := func(d time.Duration, f func()) { s.Schedule(d-s.Elapsed(), f) }
	joined, crashed := node.WorkerID(peers), node.WorkerID(7)
	at(0, func() { burst(rng.Perm(peers), 3000) })
	at(time.Millisecond, func() { burst(rng.Perm(peers)[:peers/2], 3000) })
	at(2*time.Millisecond, func() {
		if err := s.Join(joined, &linkNode{net: ln, reply: true}); err != nil {
			t.Fatal(err)
		}
		burst([]int{peers, peers}, 3000)
	})
	at(2500*time.Microsecond, func() {
		if err := s.Crash(crashed); err != nil {
			t.Fatal(err)
		}
		seq++
		lostSeq = seq
		ln.send(hub.ctx, crashed, seq, 2000) // lost at arrival, but it holds the link
	})
	at(3*time.Millisecond, func() {
		if err := s.Restart(crashed, &linkNode{net: ln, reply: true}); err != nil {
			t.Fatal(err)
		}
		burst([]int{7}, 100)
		afterLoss = seq
	})
	at(4*time.Millisecond, func() {
		burst(rng.Perm(peers)[:40], 3000)
		if err := s.Crash(hubID); err != nil {
			t.Fatal(err)
		}
		if err := s.Restart(hubID, nil); err != nil {
			t.Fatal(err)
		}
		burst(rng.Perm(peers)[:40], 100)
	})
	if why := s.RunUntilIdle(time.Second); why != "idle" {
		t.Fatalf("RunUntilIdle = %q, want idle", why)
	}

	// The reference: one busy-until per (sender, receiver), in send order.
	busy := map[[2]node.ID]time.Duration{}
	want := map[msgKey]time.Duration{}
	for _, m := range ln.sends {
		link := [2]node.ID{m.from, m.to}
		done := max(m.at, busy[link]) + time.Duration(float64(m.bytes)/bps*float64(time.Second))
		busy[link] = done
		want[m.msgKey] = done + latency
	}
	queued := map[node.ID]int{}
	for _, m := range ln.sends {
		got, ok := ln.arrived[m.msgKey]
		if !ok {
			continue
		}
		if got != want[m.msgKey] {
			t.Fatalf("%s -> %s #%d sent at %v arrived at %v, reference %v", m.from, m.to, m.seq, m.at, got, want[m.msgKey])
		}
		if got > m.at+time.Duration(float64(m.bytes)/bps*float64(time.Second))+latency {
			queued[m.from]++
			queued[m.to]++
		}
	}
	_, dead := s.FaultDrops()
	if lost := len(ln.sends) - len(ln.arrived); lost == 0 || uint64(lost) != dead {
		t.Errorf("%d of %d messages never arrived, %d dead drops; want the same, and some", lost, len(ln.sends), dead)
	}
	if _, ok := ln.arrived[msgKey{hubID, crashed, lostSeq}]; ok {
		t.Error("the message to the crashed peer was delivered")
	}
	if got := ln.arrived[msgKey{hubID, crashed, afterLoss}]; got < 4500*time.Microsecond {
		t.Errorf("the restarted peer's first message arrived at %v, before the lost one's 2000 bytes left the link", got)
	}
	if len(s.nodes[hubID].links) != peers+1 {
		t.Errorf("the sender's link table has %d entries, want %d", len(s.nodes[hubID].links), peers+1)
	}
	// Queueing must have happened on a link added by Join and on many of the
	// sender's links, the restarted sender's among them.
	if queued[joined] == 0 || queued[hubID] < peers/2 {
		t.Errorf("messages that queued on a busy link: %d at %s, %d at %s; want some, and %d or more",
			queued[joined], joined, queued[hubID], hubID, peers/2)
	}
}

// countNode counts what reaches it and notes when, and with reply set answers
// each ping.
type countNode struct {
	sim   *Sim
	ctx   node.Context
	got   *int
	last  *time.Duration
	reply bool
}

func (n *countNode) Init(ctx node.Context) { n.ctx = ctx }
func (n *countNode) Receive(from node.ID, m wire.Message) {
	*n.got++
	*n.last = n.sim.Elapsed()
	if n.reply {
		n.ctx.Send(from, &ping{Seq: m.(*ping).Seq + 1})
	}
}

// TestTelemetryExactWhenRunsReturn: the specsync_sim_* counters and gauges
// read exactly what they would had every step set them — steps, deliveries,
// the queue depth and the clock as the latest step left them (not the
// deadline a run then advanced to) — when RunFor, RunUntilIdle (idle or at its
// deadline) and a bare Step return; inside a run the steps counter trails the
// steps taken by less than publishEvery.
func TestTelemetryExactWhenRunsReturn(t *testing.T) {
	s := newSim(t, Config{Seed: 1, Metrics: obs.NewRegistry(), Net: NetModel{Latency: time.Millisecond}})
	delivered, fired := 0, 0
	var last time.Duration
	if err := s.AddNode(node.WorkerID(0), &countNode{sim: s, got: &delivered, last: &last}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(node.WorkerID(1), &countNode{sim: s, got: &delivered, last: &last, reply: true}); err != nil {
		t.Fatal(err)
	}
	s.Init()
	sender := s.nodes[node.WorkerID(0)]
	const timers = 3000
	for i := 0; i < timers; i++ {
		s.Schedule(time.Duration(i)*10*time.Microsecond+3*time.Microsecond, func() {
			if taken, shown := int64(fired+delivered), s.metSteps.Value(); shown > taken || shown <= taken-publishEvery {
				t.Fatalf("after %d steps the counter reads %d", taken, shown)
			}
			fired++
			last = s.Elapsed()
			if i%3 == 0 {
				sender.Send(node.WorkerID(1), &ping{Seq: i})
			}
		})
	}
	check := func(when string) {
		t.Helper()
		if s.metSteps.Value() != int64(fired+delivered) || s.metDelivered.Value() != int64(delivered) {
			t.Errorf("%s: steps %d, delivered %d; want %d and %d", when, s.metSteps.Value(), s.metDelivered.Value(), fired+delivered, delivered)
		}
		if s.metQueue.Value() != float64(len(s.queue)) || s.metVirtual.Value() != last.Seconds() {
			t.Errorf("%s: queue depth %v, virtual seconds %v; want %d and %v", when, s.metQueue.Value(), s.metVirtual.Value(), len(s.queue), last.Seconds())
		}
	}

	s.RunFor(7 * time.Millisecond)
	if s.Elapsed() != 7*time.Millisecond || last == s.Elapsed() {
		t.Fatalf("RunFor stopped at %v after an event at %v; want the deadline past the last event", s.Elapsed(), last)
	}
	check("after RunFor")
	for k := 0; k < 3; k++ {
		s.Step()
		check("after Step")
	}
	if why := s.RunUntilIdle(12*time.Millisecond + 505*time.Microsecond); why != "deadline" || last == s.Elapsed() {
		t.Fatalf("RunUntilIdle = %q at %v after an event at %v; want the deadline past the last event", why, s.Elapsed(), last)
	}
	check("after RunUntilIdle to its deadline")
	if why := s.RunUntilIdle(time.Minute); why != "idle" {
		t.Fatalf("RunUntilIdle = %q, want idle", why)
	}
	check("after RunUntilIdle")
	if fired != timers || delivered != 2*timers/3 || s.steps < 2*publishEvery {
		t.Errorf("%d timers fired and %d messages delivered in %d steps; want %d, %d and at least %d", fired, delivered, s.steps, timers, 2*timers/3, 2*publishEvery)
	}
}
