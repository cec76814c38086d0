package codec

import (
	"bytes"
	"fmt"

	"specsync/internal/wire"
)

// stateMagic/stateVersion frame a serialized State ("CODC", version 1).
const (
	stateMagic   uint32 = 0x434F4443
	stateVersion uint8  = 1
)

// State is a worker's error-feedback residual store: one dense block per
// parameter shard, accumulating the mass a lossy push codec dropped or
// rounded away so it re-enters later pushes. It serializes with the same
// magic/version framing as the server checkpoint, and is included in worker
// checkpoints so a restored worker does not silently discard pending
// gradient mass.
type State struct {
	// Residuals holds one residual block per shard, indexed like the
	// worker's shard table.
	Residuals [][]float64
}

// NewState builds a zeroed residual store for shards of the given lengths.
func NewState(lens []int) *State {
	s := &State{Residuals: make([][]float64, len(lens))}
	for i, n := range lens {
		s.Residuals[i] = make([]float64, n)
	}
	return s
}

// Snapshot serializes the residual store.
func (s *State) Snapshot() []byte {
	w := wire.NewWriter(64)
	w.Uint32(stateMagic)
	w.Uint8(stateVersion)
	w.Uvarint(uint64(len(s.Residuals)))
	for _, block := range s.Residuals {
		w.Float64s(block)
	}
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// RestoreState parses a snapshot produced by Snapshot. The shard count is
// bounded by the bytes left before the shard table is allocated (every shard
// takes at least one), and a file that decodes but is not exactly what
// Snapshot would write for the decoded state (an overlong varint) is refused
// as corrupt.
func RestoreState(data []byte) (*State, error) {
	r := wire.NewReader(data)
	if magic := r.Uint32(); magic != stateMagic {
		return nil, fmt.Errorf("codec: bad state magic %#x", magic)
	}
	if v := r.Uint8(); v != stateVersion {
		return nil, fmt.Errorf("codec: unsupported state version %d", v)
	}
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: state header: %w", err)
	}
	if n < 0 || n > r.Remaining() {
		return nil, fmt.Errorf("codec: state claims %d shards in %d bytes", n, r.Remaining())
	}
	s := &State{Residuals: make([][]float64, n)}
	for i := range s.Residuals {
		s.Residuals[i] = r.Float64s()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("codec: state body: %w", err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("codec: state has %d trailing bytes", r.Remaining())
	}
	if !bytes.Equal(s.Snapshot(), data) {
		return nil, fmt.Errorf("codec: state is not in canonical form")
	}
	return s, nil
}

// Matches reports whether the store's shard shapes equal lens.
func (s *State) Matches(lens []int) bool {
	if len(s.Residuals) != len(lens) {
		return false
	}
	for i, block := range s.Residuals {
		if len(block) != lens[i] {
			return false
		}
	}
	return true
}
