package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// awkward are the values whose sums depend on the order of additions or on
// the sign of a zero: what a blocked kernel gets wrong first.
var awkward = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, 1e308, -1e308,
}

// blockedInputs returns a row and four columns of length n. With seeded, the
// row carries awkward values; the columns stay finite, so which operand's NaN
// a product returns is not in question.
func blockedInputs(rng *rand.Rand, n int, seeded bool) (row Vec, cols [4]Vec) {
	row = NewVec(n)
	RandNormal(row, 1, rng)
	for j := range cols {
		cols[j] = NewVec(n)
		RandNormal(cols[j], 1, rng)
	}
	if seeded {
		for i := range row {
			if rng.Intn(3) == 0 {
				row[i] = awkward[rng.Intn(len(awkward))]
			}
		}
	}
	return row, cols
}

func TestDot4EqualsDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		for _, seeded := range []bool{false, true} {
			row, c := blockedInputs(rng, n, seeded)
			var got [4]float64
			got[0], got[1], got[2], got[3] = Dot4(row, c[0], c[1], c[2], c[3])
			for j, g := range got {
				if want := Dot(row, c[j]); math.Float64bits(g) != math.Float64bits(want) {
					t.Errorf("n=%d seeded=%v: Dot4 sum %d = %v (%#x), Dot = %v (%#x)",
						n, seeded, j, g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestAxpy4EqualsFourAxpys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 67; n++ {
		for _, seeded := range []bool{false, true} {
			y, x := blockedInputs(rng, n, seeded)
			a := [4]float64{rng.NormFloat64(), 0, math.Copysign(0, -1), rng.NormFloat64()}
			want := y.Clone()
			for j := range x {
				Axpy(want, a[j], x[j])
			}
			Axpy4(y, a[0], x[0], a[1], x[1], a[2], x[2], a[3], x[3])
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Errorf("n=%d seeded=%v: Axpy4 y[%d] = %v (%#x), four Axpys give %v (%#x)",
						n, seeded, i, y[i], math.Float64bits(y[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

func TestBlockedLengthMismatchPanics(t *testing.T) {
	v, short := NewVec(4), NewVec(3)
	for name, f := range map[string]func(){
		"Dot4 b0":  func() { Dot4(v, short, v, v, v) },
		"Dot4 b3":  func() { Dot4(v, v, v, v, short) },
		"Dot4 a":   func() { Dot4(short, v, v, v, v) },
		"Axpy4 x1": func() { Axpy4(v, 1, v, 1, short, 1, v, 1, v) },
		"Axpy4 y":  func() { Axpy4(short, 1, v, 1, v, 1, v, 1, v) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
