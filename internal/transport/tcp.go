// Package transport implements the TCP message transport used when SpecSync
// nodes run as separate processes. Frames are length-prefixed; each frame
// carries the sender's node ID and one wire-encoded message. Connections are
// dialed lazily per destination and writes are serialized per connection.
//
// A frame is
//
//	uint32 big-endian n | uvarint len(sender) | sender | uint16 kind | body
//	                    '------------------- n bytes -------------------'
//
// and costs one syscall each way: the sender hands the whole frame to one
// conn.Write, the receiver reads through one buffered window per connection.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/wire"
)

// frameHeaderLen is the length prefix that starts every frame.
const frameHeaderLen = 4

// maxFrameSize bounds a single frame (64 MiB) as a corruption guard.
const maxFrameSize = 64 << 20

// readBufSize is each connection's read window. A frame that fits in it
// (every control message) is decoded where it lies; one read fills it with
// the header, the payload and whatever frames are queued behind them.
const readBufSize = 4096

// maxRetainedFrame bounds the read buffer a connection keeps between frames
// (wire's writer pool uses the same figure), so one giant frame does not pin
// its memory for the connection's lifetime.
const maxRetainedFrame = 1 << 22

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// ErrFrameTooLarge is returned by Send for a message that encodes to more
// than maxFrameSize bytes. Nothing is written and the connection is kept: the
// receiver would drop the connection on the header alone.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// TransferRecorder observes sent frames for byte accounting.
type TransferRecorder interface {
	RecordTransfer(from, to node.ID, kind wire.Kind, bytes int, at time.Time)
}

// TCPConfig configures one TCP endpoint.
type TCPConfig struct {
	// ID is this endpoint's node ID, stamped on every outgoing frame.
	ID node.ID
	// ListenAddr is the address to accept peer connections on (e.g.
	// "127.0.0.1:0"). Empty means this endpoint only dials.
	ListenAddr string
	// Peers maps destination node IDs to their listen addresses. Peers may
	// also be added later with AddPeer.
	Peers map[node.ID]string
	// Registry decodes inbound frames. Required.
	Registry *wire.Registry
	// OnMessage is invoked (from reader goroutines, possibly concurrently)
	// for every inbound message. Required.
	OnMessage func(from node.ID, m wire.Message)
	// Transfer, if non-nil, records outbound frames.
	Transfer TransferRecorder
}

// TCP is one endpoint of the mesh.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener

	mu      sync.Mutex
	peers   map[node.ID]string
	conns   map[node.ID]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool

	wg sync.WaitGroup
}

type peerConn struct {
	mu   sync.Mutex // serializes writes
	conn net.Conn
}

// Write sends one whole frame; frames of concurrent senders do not interleave.
func (pc *peerConn) Write(frame []byte) (int, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.conn.Write(frame)
}

// ListenTCP opens the endpoint and starts its accept loop (when ListenAddr
// is set).
func ListenTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("transport: config requires a wire registry")
	}
	if cfg.OnMessage == nil {
		return nil, fmt.Errorf("transport: config requires an OnMessage handler")
	}
	if err := node.Validate(cfg.ID); err != nil {
		return nil, err
	}
	t := &TCP{
		cfg:     cfg,
		peers:   make(map[node.ID]string, len(cfg.Peers)),
		conns:   make(map[node.ID]*peerConn),
		inbound: make(map[net.Conn]struct{}),
	}
	for id, addr := range cfg.Peers {
		t.peers[id] = addr
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.ListenAddr, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.acceptLoop()
		}()
	}
	return t, nil
}

// Addr returns the bound listen address ("" if dial-only).
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// AddPeer registers (or updates) a destination address. A changed address
// drops the connection to the old one, so the next Send dials the new one.
func (t *TCP) AddPeer(id node.ID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.peers[id]; ok && old != addr {
		if pc, ok := t.conns[id]; ok {
			pc.conn.Close()
			delete(t.conns, id)
		}
	}
	t.peers[id] = addr
}

// Send frames and writes m to the destination in one attempt, dialing on
// first use. A failed write drops the connection, so the next Send to that
// peer redials: a peer that restarted is reached again, and the message lost
// in between is the protocol's to recover (a worker re-sends an unacked push
// after its RetryAfter).
func (t *TCP) Send(to node.ID, m wire.Message) error {
	pc, err := t.conn(to)
	if err != nil {
		return err
	}
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	n, err := writeFrame(pc, w, t.cfg.ID, m)
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return err // nothing was written; the connection is still good
		}
		t.dropConn(to, pc)
		return fmt.Errorf("transport: write to %s: %w", to, err)
	}
	if t.cfg.Transfer != nil {
		t.cfg.Transfer.RecordTransfer(t.cfg.ID, to, m.Kind(), n, time.Now())
	}
	return nil
}

// writeFrame encodes m as one frame into the empty writer w and hands it to
// dst in a single Write: the length is reserved at the front of w, the
// payload encoded behind it and the length patched in, so header and payload
// leave in one syscall with no copy, and no torn frame can sit between them.
func writeFrame(dst io.Writer, w *wire.Writer, from node.ID, m wire.Message) (int, error) {
	w.Uint32(0)
	w.String(string(from))
	wire.AppendMessage(w, m)
	frame := w.Bytes()
	size := len(frame) - frameHeaderLen
	if size > maxFrameSize {
		return 0, fmt.Errorf("%w: kind %d is %d bytes, limit %d", ErrFrameTooLarge, m.Kind(), size, maxFrameSize)
	}
	binary.BigEndian.PutUint32(frame, uint32(size))
	return dst.Write(frame)
}

func (t *TCP) conn(to node.ID) (*peerConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if pc, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return pc, nil
	}
	addr, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for %s", to)
	}

	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", to, addr, err)
	}
	pc := &peerConn{conn: conn}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		// Lost a dial race; use the winner.
		t.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	t.conns[to] = pc
	t.mu.Unlock()

	// Outgoing connections are bidirectional: the peer may answer on it.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop(conn)
	}()
	return pc, nil
}

func (t *TCP) dropConn(to node.ID, pc *peerConn) {
	pc.conn.Close()
	t.mu.Lock()
	if t.conns[to] == pc {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readLoop(conn)
			t.mu.Lock()
			delete(t.inbound, conn)
			t.mu.Unlock()
		}()
	}
}

// readLoop decodes a connection's frames. Reads go through one buffered
// window, so a header, its payload and any frames queued behind them arrive in
// one read. A frame that fits the window is decoded in place; a larger one is
// read straight into buf, the connection's one frame buffer, so its bytes are
// still copied once. Both are overwritten by later frames. That is safe
// because a wire.Reader hands a Decode copies, never views of its input
// (msg's TestUnmarshalCopiesOut): a delivered message aliases neither. What
// the copies land in is the runtime's, not the handler's: the recycled kinds
// (msg.Registry) are decoded into a pooled message here, before any handler
// has accepted the frame and while one may be reading its own state, and
// whoever OnMessage hands it to gives it back after Handler.Receive.
//
// OnMessage must not block on the network: live.TCPHost only appends to an
// unbounded mailbox, which is what lets two nodes stuck in Write to each
// other keep draining their sockets (live/queue.go).
func (t *TCP) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBufSize)
	var (
		buf  []byte
		from node.ID     // the connection's sender, fixed by its first frame
		rd   wire.Reader // one per connection, Reset per frame
	)
	for {
		hdr, err := br.Peek(frameHeaderLen)
		if err != nil {
			return
		}
		size := binary.BigEndian.Uint32(hdr)
		if size == 0 || size > maxFrameSize {
			return
		}
		var payload []byte
		windowed := frameHeaderLen+int(size) <= readBufSize
		if windowed {
			frame, err := br.Peek(frameHeaderLen + int(size))
			if err != nil {
				return
			}
			payload = frame[frameHeaderLen:]
		} else {
			br.Discard(frameHeaderLen) // cannot fail: Peek just buffered it
			if int(size) > cap(buf) {
				// A regrown buffer has a quarter of the old one to spare, so
				// frames whose size varies (delta replies) do not reallocate
				// at every new longest one; the first is exact.
				buf = make([]byte, int(size)+cap(buf)/4)
			}
			payload = buf[:size]
			if _, err := io.ReadFull(br, payload); err != nil {
				return
			}
		}
		body, ok := splitSender(payload, &from)
		if !ok {
			return
		}
		rd.Reset(body)
		m, err := t.cfg.Registry.UnmarshalFrom(&rd)
		if err != nil {
			// A decode failure means protocol corruption; drop the conn.
			return
		}
		if windowed {
			br.Discard(frameHeaderLen + int(size))
		} else if cap(buf) > maxRetainedFrame {
			buf = nil
		}
		t.cfg.OnMessage(from, m)
	}
}

// splitSender parses the sender ID that leads a frame payload and returns the
// message bytes behind it. *from is the connection's sender: the first frame
// fixes it (to any non-empty ID; the transport does not authenticate it), and
// a later frame naming another ID is refused. A TCP endpoint stamps every
// frame with its one ID, so a legitimate connection never changes sender. A
// repeated ID costs a compare instead of a string allocation per frame.
func splitSender(payload []byte, from *node.ID) (body []byte, ok bool) {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n == 0 || n > uint64(len(payload)-k) {
		return nil, false
	}
	end := k + int(n)
	switch id := payload[k:end]; {
	case *from == "":
		*from = node.ID(id)
	case string(id) != string(*from):
		return nil, false
	}
	return payload[end:], true
}

// Close shuts the listener and all connections and waits for reader
// goroutines to exit.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inbound))
	for _, pc := range t.conns {
		conns = append(conns, pc.conn)
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.conns = make(map[node.ID]*peerConn)
	t.mu.Unlock()

	if t.ln != nil {
		t.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
