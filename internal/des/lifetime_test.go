package des

import (
	"math"
	"runtime"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// blockSink checks every dense push it is handed and remembers where the
// block was stored.
type blockSink struct {
	t      *testing.T
	want   float64
	blocks []*float64
}

func (s *blockSink) Init(node.Context) {}
func (s *blockSink) Receive(_ node.ID, m wire.Message) {
	d := m.(*msg.PushReq).Dense
	if len(d) != 8192 || d[0] != s.want || d[8191] != s.want {
		s.t.Errorf("delivered block reads [%v .. %v], want %v throughout", d[0], d[8191], s.want)
	}
	s.blocks = append(s.blocks, &d[0])
}

func pushSim(t *testing.T, fault FaultHook) (*Sim, node.Context, *blockSink) {
	t.Helper()
	s, err := New(Config{Seed: 1, Registry: msg.Registry(), Net: NetModel{Latency: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFault(fault)
	sink := &blockSink{t: t, want: 1.5}
	if err := s.AddNode("worker/0", &echoNode{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode("server/0", sink); err != nil {
		t.Fatal(err)
	}
	s.Init()
	return s, s.nodes["worker/0"], sink
}

func block(v float64) []float64 {
	b := make([]float64, 8192)
	for i := range b {
		b[i] = v
	}
	return b
}

// TestSendEncodesBeforeReturning: what is delivered is the message as it was
// when Send was called — both copies of a duplicated one — however the sender
// reuses its buffer afterwards; a copy dropped at a dead node gives its writer
// back without disturbing later traffic; and in steady state each delivery is
// decoded into the message the previous one handed back.
func TestSendEncodesBeforeReturning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pool once
	duplicate := true
	s, ctx, sink := pushSim(t, func(node.ID, node.ID, wire.Kind, time.Time) FaultAction {
		return FaultAction{Duplicate: duplicate}
	})
	buf := block(1.5)
	ctx.Send("server/0", &msg.PushReq{Seq: 1, Dense: buf})
	for i := range buf {
		buf[i] = math.NaN() // the sender's buffer moves on
	}
	s.RunUntilIdle(time.Second)
	if len(sink.blocks) != 2 {
		t.Fatalf("%d deliveries of a duplicated message, want 2", len(sink.blocks))
	}

	duplicate = false
	ctx.Send("server/0", &msg.PushReq{Seq: 2, Dense: block(7)}) // never read: the node is down on arrival
	if err := s.Crash("server/0"); err != nil {
		t.Fatal(err)
	}
	s.RunUntilIdle(time.Second)
	if err := s.Restart("server/0", nil); err != nil {
		t.Fatal(err)
	}
	if _, dead := s.FaultDrops(); dead != 1 || len(sink.blocks) != 2 {
		t.Fatalf("dead drops %d, deliveries %d; want 1 and 2", dead, len(sink.blocks))
	}

	// sync.Pool may drop a Put (it does so at random under the race detector),
	// hence "at least once in twenty".
	for i := 0; i < 20; i++ {
		ctx.Send("server/0", &msg.PushReq{Seq: 3, Dense: block(1.5)})
		s.RunUntilIdle(time.Second)
	}
	reused := 0
	for i := 3; i < len(sink.blocks); i++ {
		if sink.blocks[i] == sink.blocks[i-1] {
			reused++
		}
	}
	if len(sink.blocks) != 22 || reused == 0 {
		t.Errorf("%d deliveries, %d decoded into the message the previous one handed back; want 22 and some", len(sink.blocks), reused)
	}
}

// TestSendDeliverAllocatesNoBlock: a 64 KiB push through the simulator costs
// neither a marshalled copy nor a decoded block.
func TestSendDeliverAllocatesNoBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a migration between Ps would miss the pool once
	s, ctx, _ := pushSim(t, nil)
	push := &msg.PushReq{Seq: 1, Dense: block(1.5)}
	op := func() {
		ctx.Send("server/0", push)
		s.RunUntilIdle(time.Second)
	}
	op()
	op()
	bytes := func(m *runtime.MemStats) uint64 { return m.TotalAlloc }
	if per := fastQuartile(51, op, bytes); per >= 1<<10 {
		t.Errorf("send -> deliver of a 64 KiB push allocates %d B/op, want < 1 KiB", per)
	}
}
