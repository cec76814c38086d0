package tensor

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix view over a flat buffer. The buffer is
// typically a slice of a larger parameter vector so that matrices can live
// inside a sharded parameter store without copying.
type Mat struct {
	Rows, Cols int
	V          Vec // len == Rows*Cols, row-major
}

// MatOver wraps an existing buffer as a Rows x Cols matrix. It panics when
// the buffer length does not match.
func MatOver(rows, cols int, v Vec) Mat {
	if len(v) != rows*cols {
		panic(fmt.Sprintf("tensor: MatOver buffer %d != %dx%d", len(v), rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, V: v}
}

// Row returns row i as a subslice (no copy).
func (m Mat) Row(i int) Vec {
	return m.V[i*m.Cols : (i+1)*m.Cols]
}

// LogSumExp returns log(sum_i exp(v_i)) computed stably.
func LogSumExp(v Vec) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var s float64
	for _, x := range v {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// Softmax writes softmax(v) into out (may alias v).
func Softmax(v, out Vec) {
	if len(v) != len(out) {
		panic("tensor: softmax length mismatch")
	}
	lse := LogSumExp(v)
	for i, x := range v {
		out[i] = math.Exp(x - lse)
	}
}

// Relu writes max(0, v) into out (may alias v).
func Relu(v, out Vec) {
	for i, x := range v {
		if x > 0 {
			out[i] = x
		} else {
			out[i] = 0
		}
	}
}
