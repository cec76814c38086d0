package core

// Tail keeps the most recent items of an append-only stream (the scheduler's
// push history). Dropping from the
// front advances a head offset instead of moving the survivors; the dead
// prefix is reclaimed by one copy once it is at least as long as the live
// part, so Push and Drop are O(1) amortised and a bounded stream settles into
// a buffer of at most twice its bound and stops allocating.
type Tail[T any] struct {
	buf  []T
	head int
}

// Len returns the number of live items.
func (t *Tail[T]) Len() int { return len(t.buf) - t.head }

// Items returns the live items, oldest first. The slice aliases the buffer
// and is valid until the next Push, Drop or Reset.
func (t *Tail[T]) Items() []T { return t.buf[t.head:] }

// Push appends one item.
func (t *Tail[T]) Push(x T) { t.buf = append(t.buf, x) }

// Drop discards the n oldest items.
func (t *Tail[T]) Drop(n int) {
	t.head += n
	if live := len(t.buf) - t.head; t.head >= live {
		copy(t.buf, t.buf[t.head:])
		t.buf = t.buf[:live]
		t.head = 0
	}
}

// Reset replaces the contents with a copy of items.
func (t *Tail[T]) Reset(items []T) {
	t.buf = append(t.buf[:0], items...)
	t.head = 0
}
