package wire

import (
	"fmt"
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
	// kinds is indexed by Kind, up to the largest registered one; an entry
	// with no factory is a kind nobody registered. Kinds are small integers
	// assigned by hand, so the table stays short and a lookup is an index.
	kinds []kindEntry
}

// kindEntry is one registered kind.
type kindEntry struct {
	new  func() Message
	pool *sync.Pool
	name string
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
	n := 0
	for _, e := range entries {
		n = max(n, int(e.Kind)+1)
	}
	r := &Registry{kinds: make([]kindEntry, n)}
	for _, e := range entries {
		if r.kinds[e.Kind].new != nil {
			panic(fmt.Sprintf("wire: duplicate message kind %d (%s)", e.Kind, e.Name))
		}
		if e.New == nil {
			panic(fmt.Sprintf("wire: nil factory for kind %d (%s)", e.Kind, e.Name))
		}
		r.kinds[e.Kind] = kindEntry{new: e.New, pool: e.Pool, name: e.Name}
	}
	return r
}

// entry returns the registration of k, or nil if k is not registered.
func (r *Registry) entry(k Kind) *kindEntry {
	if int(k) < len(r.kinds) && r.kinds[k].new != nil {
		return &r.kinds[k]
	}
	return nil
}

// Recycle takes back a message this registry decoded. The caller must be the
// one that decoded it and must be done with it: the next Unmarshal of the kind
// overwrites its slices. Kinds without a pool are left alone, so a runtime
// recycles every message it delivered without looking at the kind. Builds with
// the race detector on scribble over the message first, so a handler that
// kept one fails loudly in every test that runs under -race.
func (r *Registry) Recycle(m Message) {
	if e := r.entry(m.Kind()); e != nil && e.pool != nil {
		poison(m)
		e.pool.Put(m)
	}
}

// Name returns the registered name for a kind, or a numeric placeholder.
func (r *Registry) Name(k Kind) string {
	if e := r.entry(k); e != nil {
		return e.name
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Kinds returns all registered kinds in ascending order.
func (r *Registry) Kinds() []Kind {
	var ks []Kind
	for k := range r.kinds {
		if r.kinds[k].new != nil {
			ks = append(ks, Kind(k))
		}
	}
	return ks
}

// New returns a message of the given kind for Decode to fill: an empty one,
// or for a recycled kind one that may still hold what it last decoded.
func (r *Registry) New(k Kind) (Message, error) {
	e := r.entry(k)
	if e == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", k)
	}
	if e.pool != nil {
		if m, ok := e.pool.Get().(Message); ok {
			return m, nil
		}
	}
	return e.new(), nil
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
