package wire

import (
	"fmt"
	"sort"
	"sync"
)

// Kind identifies a message type on the wire. Kinds are assigned statically
// by the msg package; they must never be reused for a different layout.
type Kind uint16

// Message is the interface every wire message implements. Encode and Decode
// must be exact inverses; the round-trip property is enforced by tests.
type Message interface {
	// Kind returns the message's wire identifier.
	Kind() Kind
	// Encode appends the message body (without the kind prefix) to w.
	Encode(w *Writer)
	// Decode reads the message body from r. Decode reports failures through
	// r's sticky error.
	Decode(r *Reader)
}

// Registry maps message kinds to factories so transports can decode frames.
// A Registry is immutable after construction and safe for concurrent use.
//
// Kinds registered with a Pool are recycled: Unmarshal draws the message from
// the pool and its Decode fills the slices the message already holds, and
// whoever called Unmarshal hands the message back with Recycle once nothing
// reads it any more (node.Handler states when that is). A caller that never
// recycles only leaves the message to the GC.
type Registry struct {
	factories map[Kind]func() Message
	pools     map[Kind]*sync.Pool
	names     map[Kind]string
}

// RegistryEntry describes one message type for NewRegistry.
type RegistryEntry struct {
	Kind Kind
	Name string
	New  func() Message
	// Pool, if non-nil, makes the kind recycled: New is only called when the
	// pool is empty. The pool outlives the Registry, so every registry built
	// from the same table shares it, and the GC trims it like any sync.Pool.
	Pool *sync.Pool
}

// NewRegistry builds a Registry from entries. It panics on duplicate kinds,
// which indicates a programming error in the static message table.
func NewRegistry(entries []RegistryEntry) *Registry {
	r := &Registry{
		factories: make(map[Kind]func() Message, len(entries)),
		pools:     make(map[Kind]*sync.Pool),
		names:     make(map[Kind]string, len(entries)),
	}
	for _, e := range entries {
		if _, dup := r.factories[e.Kind]; dup {
			panic(fmt.Sprintf("wire: duplicate message kind %d (%s)", e.Kind, e.Name))
		}
		if e.New == nil {
			panic(fmt.Sprintf("wire: nil factory for kind %d (%s)", e.Kind, e.Name))
		}
		r.factories[e.Kind] = e.New
		if pool, fresh := e.Pool, e.New; pool != nil {
			r.pools[e.Kind] = pool
			r.factories[e.Kind] = func() Message {
				if m, ok := pool.Get().(Message); ok {
					return m
				}
				return fresh()
			}
		}
		r.names[e.Kind] = e.Name
	}
	return r
}

// Recycle takes back a message this registry decoded. The caller must be the
// one that decoded it and must be done with it: the next Unmarshal of the kind
// overwrites its slices. Kinds without a pool are left alone, so a runtime
// recycles every message it delivered without looking at the kind. Builds with
// the race detector on scribble over the message first, so a handler that
// kept one fails loudly in every test that runs under -race.
func (r *Registry) Recycle(m Message) {
	if pool := r.pools[m.Kind()]; pool != nil {
		poison(m)
		pool.Put(m)
	}
}

// Name returns the registered name for a kind, or a numeric placeholder.
func (r *Registry) Name(k Kind) string {
	if n, ok := r.names[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Kinds returns all registered kinds in ascending order.
func (r *Registry) Kinds() []Kind {
	ks := make([]Kind, 0, len(r.factories))
	for k := range r.factories {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// New returns a message of the given kind for Decode to fill: an empty one,
// or for a recycled kind one that may still hold what it last decoded.
func (r *Registry) New(k Kind) (Message, error) {
	f, ok := r.factories[k]
	if !ok {
		return nil, fmt.Errorf("wire: unknown message kind %d", k)
	}
	return f(), nil
}

// Marshal encodes m with its kind prefix into a fresh buffer. The scratch
// writer comes from the package pool, so repeated marshals reuse grown
// capacity instead of allocating per message.
func Marshal(m Message) []byte {
	w := GetWriter()
	AppendMessage(w, m)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	PutWriter(w)
	return out
}

// AppendMessage encodes m with its kind prefix onto w.
func AppendMessage(w *Writer, m Message) {
	w.Uint16(uint16(m.Kind()))
	m.Encode(w)
}

// Unmarshal decodes a message previously produced by Marshal. It fails on
// unknown kinds, decode errors, and trailing bytes.
func (r *Registry) Unmarshal(data []byte) (Message, error) {
	return r.UnmarshalFrom(NewReader(data))
}

// UnmarshalFrom is Unmarshal over everything rd has left to read. A caller
// that decodes many frames (the TCP read loop) passes the same Reader, Reset
// per frame, instead of allocating one per message.
func (r *Registry) UnmarshalFrom(rd *Reader) (Message, error) {
	k := Kind(rd.Uint16())
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("wire: reading kind: %w", err)
	}
	m, err := r.New(k)
	if err != nil {
		return nil, err
	}
	m.Decode(rd)
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", r.Name(k), err)
	}
	if rd.Remaining() != 0 {
		return nil, fmt.Errorf("wire: decoding %s: %w (%d bytes)", r.Name(k), ErrTrailingBytes, rd.Remaining())
	}
	return m, nil
}

// EncodedSize returns the number of bytes Marshal would produce for m,
// computed by encoding into a scratch writer.
func EncodedSize(m Message) int {
	w := GetWriter()
	AppendMessage(w, m)
	n := w.Len()
	PutWriter(w)
	return n
}
