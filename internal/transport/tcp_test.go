package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

type sink struct {
	mu   sync.Mutex
	msgs []string
}

func (s *sink) on(from node.ID, m wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, fmt.Sprintf("%s:%T", from, m))
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newPair(t *testing.T) (*TCP, *TCP, *sink, *sink) {
	t.Helper()
	sa, sb := &sink{}, &sink{}
	a, err := ListenTCP(TCPConfig{
		ID: node.WorkerID(0), ListenAddr: "127.0.0.1:0",
		Registry: msg.Registry(), OnMessage: sa.on,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP(TCPConfig{
		ID: node.ServerID(0), ListenAddr: "127.0.0.1:0",
		Registry: msg.Registry(), OnMessage: sb.on,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer(node.ServerID(0), b.Addr())
	b.AddPeer(node.WorkerID(0), a.Addr())
	return a, b, sa, sb
}

func TestTCPValidation(t *testing.T) {
	if _, err := ListenTCP(TCPConfig{}); err == nil {
		t.Error("expected registry error")
	}
	if _, err := ListenTCP(TCPConfig{Registry: msg.Registry()}); err == nil {
		t.Error("expected OnMessage error")
	}
	if _, err := ListenTCP(TCPConfig{Registry: msg.Registry(), OnMessage: func(node.ID, wire.Message) {}, ID: "bogus"}); err == nil {
		t.Error("expected bad-id error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b, sa, sb := newPair(t)
	if err := a.Send(node.ServerID(0), &msg.Notify{Iter: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sb.count() == 1 })
	// Reply over b's own (separate) connection.
	if err := b.Send(node.WorkerID(0), &msg.ReSync{Iter: 4}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sa.count() == 1 })
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.msgs[0] != "server/0:*msg.ReSync" {
		t.Errorf("got %q", sa.msgs[0])
	}
}

func TestTCPLargeMessage(t *testing.T) {
	a, _, _, sb := newPair(t)
	big := &msg.PullResp{Seq: 1, Values: make([]float64, 200_000)} // ~1.6 MB
	for i := range big.Values {
		big.Values[i] = float64(i)
	}
	if err := a.Send(node.ServerID(0), big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sb.count() == 1 })
}

func TestTCPManyConcurrentSends(t *testing.T) {
	a, _, _, sb := newPair(t)
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Send(node.ServerID(0), &msg.Notify{Iter: int64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, func() bool { return sb.count() == n })
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _, _, _ := newPair(t)
	if err := a.Send(node.WorkerID(42), &msg.Notify{}); err == nil {
		t.Error("expected no-address error")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _, _, _ := newPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(node.ServerID(0), &msg.Notify{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	s := &sink{}
	a, err := ListenTCP(TCPConfig{ID: node.WorkerID(0), Registry: msg.Registry(), OnMessage: s.on})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(node.ServerID(0), "127.0.0.1:1") // nothing listens there
	if err := a.Send(node.ServerID(0), &msg.Notify{}); err == nil {
		t.Error("expected dial error")
	}
}

// TestSendRedialsAfterPeerRestart: once the peer endpoint is gone, a failed
// Send drops the connection, and after the peer is back (a restarted process
// on a fresh port) a later Send dials it and is delivered. A changed address
// also retires a connection that still works, so nothing more reaches the
// old incarnation.
func TestSendRedialsAfterPeerRestart(t *testing.T) {
	to := node.ServerID(0)
	listen := func(s *sink) *TCP {
		t.Helper()
		tr, err := ListenTCP(TCPConfig{ID: to, ListenAddr: "127.0.0.1:0", Registry: msg.Registry(), OnMessage: s.on})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	first, second, third := &sink{}, &sink{}, &sink{}
	recv := listen(first)
	send, err := ListenTCP(TCPConfig{
		ID: node.WorkerID(0), Registry: msg.Registry(), OnMessage: func(node.ID, wire.Message) {},
		Peers: map[node.ID]string{to: recv.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	cached := func() bool {
		send.mu.Lock()
		defer send.mu.Unlock()
		_, ok := send.conns[to]
		return ok
	}
	if err := send.Send(to, &msg.Heartbeat{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return first.count() == 1 })

	recv.Close()
	// A write into a freshly closed peer can succeed locally before the
	// reset arrives, so the failure may take a few sends to surface.
	waitFor(t, func() bool { return send.Send(to, &msg.Heartbeat{Iter: 2}) != nil })
	if cached() {
		t.Fatal("a failed Send kept its connection")
	}

	recv = listen(second)
	send.AddPeer(to, recv.Addr())
	if err := send.Send(to, &msg.Heartbeat{Iter: 3}); err != nil {
		t.Fatalf("Send after the peer restarted: %v", err)
	}
	waitFor(t, func() bool { return second.count() == 1 })

	send.AddPeer(to, listen(third).Addr())
	if cached() {
		t.Fatal("AddPeer kept the connection to the old address")
	}
	if err := send.Send(to, &msg.Heartbeat{Iter: 4}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return third.count() == 1 })
	if n := second.count(); n != 1 {
		t.Errorf("the old address received %d messages, want 1", n)
	}
}

func TestTCPTransferRecorded(t *testing.T) {
	var bytes atomic.Int64
	rec := recorderFunc(func(from, to node.ID, kind wire.Kind, n int, at time.Time) {
		bytes.Add(int64(n))
	})
	s := &sink{}
	b, err := ListenTCP(TCPConfig{
		ID: node.ServerID(0), ListenAddr: "127.0.0.1:0",
		Registry: msg.Registry(), OnMessage: s.on,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(TCPConfig{
		ID: node.WorkerID(0), Registry: msg.Registry(), OnMessage: s.on,
		Transfer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer(node.ServerID(0), b.Addr())
	if err := a.Send(node.ServerID(0), &msg.Notify{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 1 })
	if bytes.Load() == 0 {
		t.Error("transfer not recorded")
	}
}

type recorderFunc func(from, to node.ID, kind wire.Kind, n int, at time.Time)

func (f recorderFunc) RecordTransfer(from, to node.ID, kind wire.Kind, n int, at time.Time) {
	f(from, to, kind, n, at)
}

// TestTCPFrameBufferReuseKeepsMessagesIntact streams large and small frames
// alternately over one connection while the receiver retains every message,
// then compares each against what was sent. readLoop reuses one frame buffer
// per connection; a message still pointing into it would now hold a later
// frame's bytes. One frame exceeds maxRetainedFrame, so the drop path runs.
func TestTCPFrameBufferReuseKeepsMessagesIntact(t *testing.T) {
	var (
		mu  sync.Mutex
		got []wire.Message
	)
	recv, err := ListenTCP(TCPConfig{
		ID: node.ServerID(0), ListenAddr: "127.0.0.1:0", Registry: msg.Registry(),
		OnMessage: func(_ node.ID, m wire.Message) {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := ListenTCP(TCPConfig{
		ID: node.WorkerID(0), Registry: msg.Registry(),
		Peers:     map[node.ID]string{node.ServerID(0): recv.Addr()},
		OnMessage: func(node.ID, wire.Message) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	var sent []wire.Message
	for i := 0; i < 60; i++ {
		var m wire.Message
		switch i % 4 {
		case 0:
			payload := make([]byte, 20_000+i*500)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			m = &msg.PushReqV2{Seq: uint64(i), Iter: int64(i), Codec: 1, Payload: payload}
		case 1:
			m = &msg.Notify{Iter: int64(i)}
		case 2:
			n := 3_000
			if i == 30 {
				n = maxRetainedFrame/8 + 1
			}
			vals := make([]float64, n)
			for j := range vals {
				vals[j] = float64(i*1_000_000 + j)
			}
			m = &msg.PullResp{Seq: uint64(i), Version: int64(i), Values: vals}
		case 3:
			m = &msg.PushReq{Seq: uint64(i), IsSparse: true, SparseIdx: []int32{int32(i), int32(i + 1)}, SparseVal: []float64{float64(i), -float64(i)}}
		}
		sent = append(sent, m)
		if err := send.Send(node.ServerID(0), m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(sent)
	})
	mu.Lock()
	defer mu.Unlock()
	for i := range sent {
		if !bytes.Equal(wire.Marshal(got[i]), wire.Marshal(sent[i])) {
			t.Fatalf("message %d (%T) was altered after delivery", i, sent[i])
		}
	}
}
