package ps

import (
	"bytes"
	"fmt"
	"io"

	"specsync/internal/tensor"
	"specsync/internal/wire"
)

// Checkpoint support: a shard's full state (range, version, parameters)
// serializes through the wire codec so training can stop and resume. The
// format carries a magic header and version byte so stale files fail loudly.

const (
	checkpointMagic   uint32 = 0x53505343 // "SPSC"
	checkpointVersion uint8  = 1
)

// Snapshot is a point-in-time copy of a shard's state.
type Snapshot struct {
	Range   Range
	Version int64
	Params  tensor.Vec
}

// Snapshot captures the shard's current state. Call it only from the shard's
// own execution context (or after the runtime has stopped).
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		Range:   s.cfg.Range,
		Version: s.version.Load(),
		Params:  s.params.Clone(),
	}
}

// Restore overwrites the shard's state from a snapshot. The snapshot's range
// must match the shard's.
func (s *Server) Restore(snap Snapshot) error {
	if snap.Range != s.cfg.Range {
		return fmt.Errorf("ps: snapshot range %+v does not match shard %+v", snap.Range, s.cfg.Range)
	}
	if len(snap.Params) != s.cfg.Range.Len() {
		return fmt.Errorf("ps: snapshot has %d params, shard needs %d", len(snap.Params), s.cfg.Range.Len())
	}
	copy(s.params, snap.Params)
	s.version.Store(snap.Version)
	s.forgetHolders()
	return nil
}

// WriteTo serializes the snapshot.
func (snap Snapshot) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(snap.encode())
	if err != nil {
		return int64(n), fmt.Errorf("ps: writing checkpoint: %w", err)
	}
	return int64(n), nil
}

func (snap Snapshot) encode() []byte {
	buf := wire.NewWriter(16 + 8*len(snap.Params))
	buf.Uint32(checkpointMagic)
	buf.Uint8(checkpointVersion)
	buf.Int(snap.Range.Lo)
	buf.Int(snap.Range.Hi)
	buf.Varint(snap.Version)
	buf.Float64s(snap.Params)
	return buf.Bytes()
}

// ReadSnapshot deserializes a snapshot written by WriteTo. A file that decodes
// but is not exactly what WriteTo would write for the decoded snapshot (an
// overlong varint) is refused as corrupt.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Snapshot{}, fmt.Errorf("ps: reading checkpoint: %w", err)
	}
	rd := wire.NewReader(data)
	if magic := rd.Uint32(); magic != checkpointMagic {
		return Snapshot{}, fmt.Errorf("ps: bad checkpoint magic %#x", magic)
	}
	if v := rd.Uint8(); v != checkpointVersion {
		return Snapshot{}, fmt.Errorf("ps: unsupported checkpoint version %d", v)
	}
	snap := Snapshot{
		Range:   Range{Lo: rd.Int(), Hi: rd.Int()},
		Version: rd.Varint(),
		Params:  rd.Float64s(),
	}
	if err := rd.Err(); err != nil {
		return Snapshot{}, fmt.Errorf("ps: decoding checkpoint: %w", err)
	}
	if rd.Remaining() != 0 {
		return Snapshot{}, fmt.Errorf("ps: checkpoint has %d trailing bytes", rd.Remaining())
	}
	if snap.Range.Len() != len(snap.Params) {
		return Snapshot{}, fmt.Errorf("ps: checkpoint range %+v does not match %d params", snap.Range, len(snap.Params))
	}
	if !bytes.Equal(snap.encode(), data) {
		return Snapshot{}, fmt.Errorf("ps: checkpoint is not in canonical form")
	}
	return snap, nil
}
