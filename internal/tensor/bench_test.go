package tensor

import (
	"math/rand"
	"testing"
)

func randVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	v := NewVec(n)
	RandNormal(v, 1, rng)
	return v
}

func BenchmarkAxpy(b *testing.B) {
	x, y := randVec(7210, 1), randVec(7210, 2)
	b.SetBytes(7210 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(y, 0.001, x)
	}
}

func BenchmarkDot(b *testing.B) {
	x, y := randVec(7210, 1), randVec(7210, 2)
	b.SetBytes(7210 * 8)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Dot(x, y)
	}
	_ = sink
}

// BenchmarkDotRows is one 96x64 layer applied to four samples: 384 inner
// products, taken one Dot at a time or four to a Dot4.
func BenchmarkDotRows(b *testing.B) {
	const rows, cols = 96, 64
	m := MatOver(rows, cols, randVec(rows*cols, 3))
	x := [4]Vec{randVec(cols, 4), randVec(cols, 5), randVec(cols, 6), randVec(cols, 7)}
	var sink float64
	b.Run("Dot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, xj := range x {
				for r := 0; r < rows; r++ {
					sink += Dot(m.Row(r), xj)
				}
			}
		}
	})
	b.Run("Dot4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				s0, s1, s2, s3 := Dot4(m.Row(r), x[0], x[1], x[2], x[3])
				sink += s0 + s1 + s2 + s3
			}
		}
	})
	_ = sink
}

func BenchmarkSoftmax(b *testing.B) {
	v, out := randVec(50, 5), NewVec(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(v, out)
	}
}
