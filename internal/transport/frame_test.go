package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specsync/internal/msg"
	"specsync/internal/node"
	"specsync/internal/wire"
)

// countingWriter records the size of every Write it is handed and, unless
// sizesOnly, a copy of the last one.
type countingWriter struct {
	writes    []int
	last      []byte
	sizesOnly bool
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	if !c.sizesOnly {
		c.last = append(c.last[:0], p...)
	}
	return len(p), nil
}

// TestWriteFrameIsOneWrite pins the send side of the one-syscall rule: a
// frame, small or large, reaches the connection as exactly one Write of
// header + payload, and the header says how long the payload is.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, m := range []wire.Message{
		&msg.Notify{Iter: 7},
		&msg.PullResp{Seq: 1, Version: 2, Values: make([]float64, 24)},
		&msg.PullResp{Seq: 3, Version: 4, Values: make([]float64, 8192)},
	} {
		want := wire.NewWriter(64)
		want.String(string(node.WorkerID(3)))
		wire.AppendMessage(want, m)
		payload := want.Bytes()

		cw := &countingWriter{}
		n, err := writeFrame(cw, wire.NewWriter(0), node.WorkerID(3), m)
		if err != nil {
			t.Fatal(err)
		}
		if len(cw.writes) != 1 || cw.writes[0] != frameHeaderLen+len(payload) || n != cw.writes[0] {
			t.Fatalf("%T: writes %v (returned %d), want one of %d bytes", m, cw.writes, n, frameHeaderLen+len(payload))
		}
		if got := binary.BigEndian.Uint32(cw.last); int(got) != len(payload) {
			t.Errorf("%T: header says %d, payload is %d bytes", m, got, len(payload))
		}
		if !bytes.Equal(cw.last[frameHeaderLen:], payload) {
			t.Errorf("%T: payload bytes differ from sender ID + wire message", m)
		}
	}
}

// TestFramePathAllocatesNothing pins what the per-frame garbage work bought:
// encoding onto a warm writer, and parsing the header's sender ID when the
// connection's previous frame came from the same sender.
func TestFramePathAllocatesNothing(t *testing.T) {
	w := wire.NewWriter(512)
	cw := &countingWriter{}
	var m wire.Message = &msg.PullResp{Seq: 1, Version: 2, Values: make([]float64, 24)}
	encode := func() {
		w.Reset()
		cw.writes = cw.writes[:0]
		if _, err := writeFrame(cw, w, node.WorkerID(1), m); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(200, encode); allocs != 0 {
		t.Errorf("writeFrame on a warm writer: %.1f allocs/op, want 0", allocs)
	}

	payload := append([]byte(nil), cw.last[frameHeaderLen:]...)
	var from node.ID
	parse := func() {
		body, ok := splitSender(payload, &from)
		if !ok || len(body) == 0 {
			t.Fatal("splitSender rejected a valid payload")
		}
	}
	parse()
	if from != node.WorkerID(1) {
		t.Fatalf("sender = %q", from)
	}
	if allocs := testing.AllocsPerRun(200, parse); allocs != 0 {
		t.Errorf("splitSender on a repeated sender: %.1f allocs/op, want 0", allocs)
	}
}

func TestSplitSenderRejectsBadLengths(t *testing.T) {
	var from node.ID
	for _, p := range [][]byte{
		{},                       // no length
		{0x80},                   // unterminated uvarint
		{5, 'a', 'b'},            // length past the payload
		{0xff, 0xff, 0xff, 0x7f}, // huge length
		{0, 1, 2},                // empty sender ID
	} {
		if _, ok := splitSender(p, &from); ok {
			t.Errorf("splitSender(%v) accepted", p)
		}
	}
}

// hugeMsg is a registry kind whose body is n zero bytes.
type hugeMsg struct{ n int }

var zeros = make([]byte, maxFrameSize)

const kindHuge wire.Kind = 60000

func (*hugeMsg) Kind() wire.Kind         { return kindHuge }
func (m *hugeMsg) Encode(w *wire.Writer) { w.Bytes2(zeros[:m.n]) }
func (m *hugeMsg) Decode(r *wire.Reader) { m.n = len(r.Bytes()) }

// TestOversizeFrameRefusedBeforeTheWire: the receiver drops a connection on
// the header of a frame over maxFrameSize, so Send must fail with
// ErrFrameTooLarge without a write, a transfer record or the loss of the
// (healthy) connection.
func TestOversizeFrameRefusedBeforeTheWire(t *testing.T) {
	reg := wire.NewRegistry([]wire.RegistryEntry{
		{Kind: msg.KindNotify, Name: "Notify", New: func() wire.Message { return &msg.Notify{} }},
		{Kind: kindHuge, Name: "Huge", New: func() wire.Message { return &hugeMsg{} }},
	})

	// Size the body so the payload is exactly maxFrameSize+1 bytes (the
	// length prefix of a 4 MiB body is as long as that of a 64 MiB one).
	probe := len(frameBytes(t, node.WorkerID(0), &hugeMsg{n: 1 << 22}))
	over := &hugeMsg{n: maxFrameSize + 1 - (probe - frameHeaderLen - 1<<22)}
	cw := &countingWriter{sizesOnly: true}
	if _, err := writeFrame(cw, wire.NewWriter(0), node.WorkerID(0), &hugeMsg{n: over.n - 1}); err != nil {
		t.Fatalf("a payload of exactly maxFrameSize was refused: %v", err)
	}
	if len(cw.writes) != 1 || cw.writes[0] != frameHeaderLen+maxFrameSize {
		t.Fatalf("boundary frame written as %v", cw.writes)
	}

	s := &sink{}
	recv, err := ListenTCP(TCPConfig{ID: node.ServerID(0), ListenAddr: "127.0.0.1:0", Registry: reg, OnMessage: s.on})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var records atomic.Int64
	send, err := ListenTCP(TCPConfig{
		ID: node.WorkerID(0), Registry: reg, OnMessage: func(node.ID, wire.Message) {},
		Peers: map[node.ID]string{node.ServerID(0): recv.Addr()},
		Transfer: recorderFunc(func(node.ID, node.ID, wire.Kind, int, time.Time) {
			records.Add(1)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	if err := send.Send(node.ServerID(0), &msg.Notify{Iter: 1}); err != nil {
		t.Fatal(err)
	}
	send.mu.Lock()
	before := send.conns[node.ServerID(0)]
	send.mu.Unlock()

	err = send.Send(node.ServerID(0), over)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send(oversize) = %v, want ErrFrameTooLarge", err)
	}
	if records.Load() != 1 {
		t.Errorf("transfer recorded %d frames, want 1 (the Notify)", records.Load())
	}
	send.mu.Lock()
	after := send.conns[node.ServerID(0)]
	send.mu.Unlock()
	if before == nil || after != before {
		t.Error("the connection was dropped by a refused frame")
	}

	// The stream is intact: the next frame on the same connection decodes.
	if err := send.Send(node.ServerID(0), &msg.Notify{Iter: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.count() == 2 })
}

// frameBytes is m framed as the wire carries it.
func frameBytes(t *testing.T, from node.ID, m wire.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, wire.NewWriter(0), from, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pushOfFrameSize builds a PushReqV2 whose whole frame is exactly total bytes.
func pushOfFrameSize(t *testing.T, from node.ID, seq uint64, total int) wire.Message {
	t.Helper()
	n := total - 32
	for try := 0; try < 8; try++ {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(seq) + byte(i)
		}
		m := &msg.PushReqV2{Seq: seq, Iter: int64(seq), Codec: 1, Payload: payload}
		got := len(frameBytes(t, from, m))
		if got == total {
			return m
		}
		n += total - got
	}
	t.Fatalf("no PushReqV2 frames to exactly %d bytes", total)
	return nil
}

// segment is one raw Write; after > 0 holds it back until the receiver has
// delivered that many messages, so the split really lands between two reads.
type segment struct {
	data  []byte
	after int
}

// TestReadLoopUnderSegmentation delivers one sequence of frames — small ones
// decoded in the read window, frames one byte either side of the window's
// size, a 65 kB one, one over maxRetainedFrame, then small again — through a
// raw socket under three segmentations, while the receiver retains every
// message. Count, order and content must survive: a message aliasing the
// window or the frame buffer would hold a later frame's bytes by the end.
func TestReadLoopUnderSegmentation(t *testing.T) {
	from := node.WorkerID(7)
	vals := func(n, salt int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(salt*1_000_003 + i)
		}
		return v
	}
	small := func(i int) wire.Message {
		return &msg.PullResp{Seq: uint64(i), Version: int64(i), Values: vals(23, i)} // ~200 B
	}
	msgs := []wire.Message{
		small(0), small(1), small(2),
		pushOfFrameSize(t, from, 3, readBufSize-1),
		pushOfFrameSize(t, from, 4, readBufSize),
		pushOfFrameSize(t, from, 5, readBufSize+1),
		&msg.Notify{Iter: 6},
		&msg.PullResp{Seq: 7, Version: 7, Values: vals(8192, 7)}, // 65 kB
		&msg.PushReq{Seq: 8, IsSparse: true, SparseIdx: []int32{1, 9}, SparseVal: []float64{8, -8}},
		&msg.PullResp{Seq: 9, Version: 9, Values: vals(maxRetainedFrame/8+1, 9)},
		small(10), &msg.Notify{Iter: 11}, small(12),
	}
	var stream []byte
	var starts []int // offset of each frame's header
	for _, m := range msgs {
		starts = append(starts, len(stream))
		stream = append(stream, frameBytes(t, from, m)...)
	}
	frameAt := func(off int) int { // frames that end at or before off
		n := 0
		for n < len(msgs)-1 && starts[n+1] <= off {
			n++
		}
		return n
	}

	// One byte per Write. The interior of a frame over 128 KiB goes in odd
	// 64 KiB pieces instead: four million one-byte writes prove nothing more.
	var bytewise []segment
	for i := 0; i < len(stream); {
		f := frameAt(i)
		end := len(stream)
		if f+1 < len(starts) {
			end = starts[f+1]
		}
		n := 1
		if end-starts[f] > 128<<10 && i >= starts[f]+8192 && i < end-8192 {
			n = min(64<<10+1, end-8192-i)
		}
		bytewise = append(bytewise, segment{data: stream[i : i+n]})
		i += n
	}

	cases := map[string][]segment{
		"one byte per write": bytewise,
		"one write":          {{data: stream}},
	}
	// Cut inside one header at every offset; the frame before it is the first
	// to straddle the window, so the header is parsed from a refilled window.
	hdr := starts[6]
	for k := 0; k <= frameHeaderLen; k++ {
		cases[fmt.Sprintf("header split at +%d", k)] = []segment{
			{data: stream[:hdr+k]},
			{data: stream[hdr+k:], after: frameAt(hdr + k)},
		}
	}

	for name, segs := range cases {
		segs := segs
		t.Run(name, func(t *testing.T) {
			var (
				mu  sync.Mutex
				got []wire.Message
				ids []node.ID
			)
			count := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(got)
			}
			recv, err := ListenTCP(TCPConfig{
				ID: node.ServerID(0), ListenAddr: "127.0.0.1:0", Registry: msg.Registry(),
				OnMessage: func(id node.ID, m wire.Message) {
					mu.Lock()
					got, ids = append(got, m), append(ids, id)
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			conn := dialRaw(t, recv.Addr())
			for _, s := range segs {
				if s.after > 0 {
					waitFor(t, func() bool { return count() >= s.after })
				}
				if _, err := conn.Write(s.data); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool { return count() == len(msgs) })
			mu.Lock()
			defer mu.Unlock()
			for i := range msgs {
				if ids[i] != from {
					t.Fatalf("message %d from %q, want %q", i, ids[i], from)
				}
				if !bytes.Equal(wire.Marshal(got[i]), wire.Marshal(msgs[i])) {
					t.Fatalf("message %d (%T) differs from what was sent", i, msgs[i])
				}
			}
		})
	}
}

// TestSenderIDFixedAtFirstFrame: a TCP endpoint stamps every frame with its
// one ID, so the first frame fixes the connection's sender and a frame naming
// another one closes the connection before anything behind it is delivered.
func TestSenderIDFixedAtFirstFrame(t *testing.T) {
	srv, s := listener(t)
	conn := dialRaw(t, srv.Addr())
	var stream []byte
	for _, id := range []node.ID{"worker/1", "worker/1", "worker/22", "worker/1"} {
		stream = append(stream, frameBytes(t, id, &msg.Notify{Iter: 1})...)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	// The receiver closes its end when it refuses the third frame; the fourth
	// was already in its buffer, so once EOF arrives nothing more can come.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a sender change: %v, want EOF", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	want := []string{"worker/1:*msg.Notify", "worker/1:*msg.Notify"}
	if !slices.Equal(s.msgs, want) {
		t.Errorf("delivered %q, want %q", s.msgs, want)
	}
}
