package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTailMatchesSlice drives a Tail and a plain slice (front-trimmed the
// old way, by copying) through the same random pushes, drops and resets.
func TestTailMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tail Tail[int]
	var want []int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			tail.Push(step)
			want = append(want, step)
		case op < 9:
			n := rng.Intn(len(want) + 1)
			if rng.Intn(3) > 0 {
				n = min(n, 2)
			}
			tail.Drop(n)
			want = append(want[:0], want[n:]...)
		default:
			if rng.Intn(50) == 0 {
				fresh := []int{-1, -2, -3}[:rng.Intn(4)]
				tail.Reset(fresh)
				want = append(want[:0], fresh...)
			}
		}
		if tail.Len() != len(want) || !slices.Equal(tail.Items(), want) {
			t.Fatalf("step %d: tail %v, want %v", step, tail.Items(), want)
		}
	}
}

// TestTailBoundedStreamSettles pins the property the notify path relies on: a
// stream held at a bound stops allocating, in a buffer that stays within a
// small multiple of the bound.
func TestTailBoundedStreamSettles(t *testing.T) {
	const bound = 64
	var tail Tail[int]
	push := func() {
		tail.Push(1)
		if over := tail.Len() - bound; over > 0 {
			tail.Drop(over)
		}
	}
	for i := 0; i < 4*bound; i++ {
		push()
	}
	if allocs := testing.AllocsPerRun(10*bound, push); allocs != 0 {
		t.Errorf("bounded push allocates %v times per op", allocs)
	}
	if tail.Len() != bound || cap(tail.buf) > 4*bound {
		t.Errorf("len %d cap %d for bound %d", tail.Len(), cap(tail.buf), bound)
	}
}
