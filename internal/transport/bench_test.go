package transport

import (
	"sync/atomic"
	"testing"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// benchSizes are the ledger's two frame shapes: a tcp_ctrl control message
// (~220 B framed) and a tcp_dense push (64 KiB of values).
var benchSizes = []struct {
	name   string
	values int
}{
	{"220B", 24},
	{"64KiB", 8192},
}

// benchPair is two loopback endpoints; onA and onB may be set before traffic.
func benchPair(b *testing.B, onA, onB func(node.ID, wire.Message)) (a, z *TCP) {
	b.Helper()
	z, err := ListenTCP(TCPConfig{ID: node.ServerID(0), ListenAddr: "127.0.0.1:0", Registry: msg.Registry(), OnMessage: onB})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { z.Close() })
	a, err = ListenTCP(TCPConfig{
		ID: node.WorkerID(0), ListenAddr: "127.0.0.1:0", Registry: msg.Registry(), OnMessage: onA,
		Peers: map[node.ID]string{node.ServerID(0): z.Addr()},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	z.AddPeer(node.WorkerID(0), a.Addr())
	return a, z
}

// BenchmarkTCPPingPong is one request and its echo per op: two frames, each
// waiting on the other, so ns/op is twice the per-frame latency.
func BenchmarkTCPPingPong(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m := &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, sz.values)}
			back := make(chan struct{}, 1)
			var z *TCP
			a, z := benchPair(b,
				func(node.ID, wire.Message) { back <- struct{}{} },
				func(from node.ID, got wire.Message) {
					if err := z.Send(from, got); err != nil {
						b.Error(err)
					}
				})
			to := node.ServerID(0)
			roundTrip := func() {
				if err := a.Send(to, m); err != nil {
					b.Fatal(err)
				}
				<-back
			}
			roundTrip() // dial both directions
			b.SetBytes(int64(2 * wire.EncodedSize(m)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}

// BenchmarkTCPFlood is one-way throughput: b.N frames sent back to back, the
// clock stopped when the receiver has decoded the last one.
func BenchmarkTCPFlood(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m := &msg.PullResp{Seq: 1, Version: 1, Values: make([]float64, sz.values)}
			var got, want atomic.Int64
			done := make(chan struct{}, 1)
			a, _ := benchPair(b,
				func(node.ID, wire.Message) {},
				func(node.ID, wire.Message) {
					if got.Add(1) == want.Load() {
						done <- struct{}{}
					}
				})
			to := node.ServerID(0)
			flood := func(n int) {
				want.Store(got.Load() + int64(n))
				for i := 0; i < n; i++ {
					if err := a.Send(to, m); err != nil {
						b.Fatal(err)
					}
				}
				<-done
			}
			flood(1) // dial
			b.SetBytes(int64(wire.EncodedSize(m)))
			b.ReportAllocs()
			b.ResetTimer()
			flood(b.N)
		})
	}
}
