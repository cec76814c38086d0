package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

func testRegistry() *wire.Registry { return msg.Registry() }

func testMsg(seq int) wire.Message { return &msg.Heartbeat{Iter: int64(seq)} }

// TestSendRetriesAcrossRestart kills the receiving endpoint mid-run and
// brings a replacement up on the same address; a retrying sender must ride
// through the outage, and the retry hook must observe the failed attempts.
func TestSendRetriesAcrossRestart(t *testing.T) {
	reg := testRegistry()

	var got atomic.Int64
	onMsg := func(from node.ID, m wire.Message) { got.Add(1) }

	recv, err := ListenTCP(TCPConfig{
		ID: node.ServerID(0), ListenAddr: "127.0.0.1:0",
		Registry: reg, OnMessage: onMsg,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := recv.Addr()

	var retries atomic.Int64
	var retryErrs sync.Map
	send, err := ListenTCP(TCPConfig{
		ID:           node.WorkerID(0),
		Peers:        map[node.ID]string{node.ServerID(0): addr},
		Registry:     reg,
		OnMessage:    func(node.ID, wire.Message) {},
		MaxAttempts:  8,
		RetryBackoff: 10 * time.Millisecond,
		MaxBackoff:   80 * time.Millisecond,
		OnRetry: func(to node.ID, attempt int, err error) {
			retries.Add(1)
			retryErrs.Store(attempt, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if err := send.Send(node.ServerID(0), testMsg(1)); err != nil {
		t.Fatalf("initial send: %v", err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })

	// Kill the receiver; the sender's cached conn goes stale.
	recv.Close()

	// A write to a freshly closed peer can succeed locally before the RST
	// arrives, so probe the dead conn first (the message is lost either
	// way — the listener is down) and give the RST time to land.
	_ = send.Send(node.ServerID(0), testMsg(99))
	time.Sleep(30 * time.Millisecond)

	// Re-listen on the same address after a short outage window.
	errCh := make(chan error, 1)
	var recv2 *TCP
	go func() {
		time.Sleep(100 * time.Millisecond)
		var err error
		recv2, err = ListenTCP(TCPConfig{
			ID: node.ServerID(0), ListenAddr: addr,
			Registry: reg, OnMessage: onMsg,
		})
		errCh <- err
	}()

	// This send first fails on the dead conn, then retries (re-dialing)
	// until the replacement is listening.
	if err := send.Send(node.ServerID(0), testMsg(2)); err != nil {
		t.Fatalf("send across restart: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer recv2.Close()

	if retries.Load() == 0 {
		t.Error("no retries recorded across the outage")
	}

	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := got.Load(); n < 2 {
		t.Errorf("received %d messages, want >= 2", n)
	}
}

// TestSendNoRetryAfterClose verifies retries stop immediately at ErrClosed.
func TestSendNoRetryAfterClose(t *testing.T) {
	reg := testRegistry()
	send, err := ListenTCP(TCPConfig{
		ID:           node.WorkerID(1),
		Peers:        map[node.ID]string{node.ServerID(0): "127.0.0.1:1"},
		Registry:     reg,
		OnMessage:    func(node.ID, wire.Message) {},
		MaxAttempts:  5,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	send.Close()
	start := time.Now()
	if err := send.Send(node.ServerID(0), testMsg(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("Send after Close appears to have retried")
	}
}

// TestSendBoundedRetries verifies the attempt budget is respected when the
// peer never comes up.
func TestSendBoundedRetries(t *testing.T) {
	reg := testRegistry()
	var retries atomic.Int64
	send, err := ListenTCP(TCPConfig{
		ID:           node.WorkerID(2),
		Peers:        map[node.ID]string{node.ServerID(0): "127.0.0.1:1"}, // nothing listens
		Registry:     reg,
		OnMessage:    func(node.ID, wire.Message) {},
		MaxAttempts:  3,
		RetryBackoff: time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
		OnRetry:      func(node.ID, int, error) { retries.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.Send(node.ServerID(0), testMsg(1)); err == nil {
		t.Error("send to dead address succeeded")
	}
	if n := retries.Load(); n != 2 {
		t.Errorf("retried %d times, want 2 (3 attempts)", n)
	}
}
