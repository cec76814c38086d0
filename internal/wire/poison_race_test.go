//go:build race

package wire

import (
	"math"
	"sync"
	"testing"
)

// TestRecyclePoisonsUnderRace: in race builds a message handed back reads as
// NaN and 0xFF from then on, which is what turns a handler that kept one into
// a failing digest or loss check somewhere in `go test -race ./...`.
func TestRecyclePoisonsUnderRace(t *testing.T) {
	var pool sync.Pool
	reg := NewRegistry([]RegistryEntry{
		{Kind: pooledKind, Name: "pooled", New: func() Message { return &pooledMsg{} }, Pool: &pool},
	})
	m := &pooledMsg{F: []float64{1, 2}, B: []byte{3, 4}, I: []int32{5}}
	reg.Recycle(m)
	if !math.IsNaN(m.F[0]) || !math.IsNaN(m.F[1]) || m.B[0] != 0xFF || m.B[1] != 0xFF {
		t.Errorf("after Recycle: F = %v, B = %v; want NaN and 0xFF", m.F, m.B)
	}
}
