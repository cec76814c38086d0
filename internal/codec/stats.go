package codec

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"specsync/internal/metrics"
	"specsync/internal/wire"
)

// Stats is the codec layer's byte accounting:
//
//   - bytes/messages on the wire per {message kind, codec label}, read from
//     the run's transfer ledger (Tap) through the labeler, and
//   - encode-site compression ratios per codec (RecordEncode), comparing
//     each payload against the 8·n bytes a dense float64 block would cost.
//
// It is safe for concurrent use and exposes its counters in Prometheus text
// form (WritePrometheus) for the obs registry.
type Stats struct {
	mu      sync.Mutex
	enc     map[ID]*encCell
	labelOf func(wire.Kind) string
	ledger  atomic.Pointer[metrics.Transfer]
}

type encCell struct {
	raw    int64
	enc    int64
	blocks int64
}

// NewStats builds a Stats whose wire series label each message kind with a
// codec name (use msg.CodecLabeler for the protocol's kinds).
func NewStats(labelOf func(wire.Kind) string) *Stats {
	if labelOf == nil {
		labelOf = func(wire.Kind) string { return "none" }
	}
	return &Stats{
		enc:     make(map[ID]*encCell),
		labelOf: labelOf,
	}
}

// Tap binds the Stats' wire series to t, the run's transfer ledger, and
// returns t for the runtime to record into. Every kind carries one codec
// label, so the per-{kind, codec} series are t's per-kind counters read
// through the labeler; nothing is recorded twice. Until Tap the wire series
// are empty.
func (s *Stats) Tap(t *metrics.Transfer) *metrics.Transfer {
	s.ledger.Store(t)
	return t
}

// wireRows returns the bound ledger's per-kind bytes and message counts.
func (s *Stats) wireRows() map[wire.Kind]struct{ Bytes, Msgs int64 } {
	if t := s.ledger.Load(); t != nil {
		return t.Breakdown()
	}
	return nil
}

// RecordEncode records one encoded block: rawBytes is the dense float64 cost
// of the block (8·n), encBytes the payload actually produced.
func (s *Stats) RecordEncode(id ID, rawBytes, encBytes int) {
	s.mu.Lock()
	cell, ok := s.enc[id]
	if !ok {
		cell = &encCell{}
		s.enc[id] = cell
	}
	cell.raw += int64(rawBytes)
	cell.enc += int64(encBytes)
	cell.blocks++
	s.mu.Unlock()
}

// KindBytes returns the on-wire bytes and message count recorded for one
// {kind, codec label} pair.
func (s *Stats) KindBytes(kind wire.Kind, label string) (bytes, msgs int64) {
	t := s.ledger.Load()
	if t == nil || s.labelOf(kind) != label {
		return 0, 0
	}
	return t.KindBytes(kind)
}

// LabelBytes sums on-wire bytes across all kinds carrying the given codec
// label.
func (s *Stats) LabelBytes(label string) int64 {
	var total int64
	for kind, c := range s.wireRows() {
		if s.labelOf(kind) == label {
			total += c.Bytes
		}
	}
	return total
}

// Ratio returns encoded/raw bytes over every block the codec encoded, or
// NaN-free 1 when it never ran.
func (s *Stats) Ratio(id ID) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cell, ok := s.enc[id]
	if !ok || cell.raw == 0 {
		return 1
	}
	return float64(cell.enc) / float64(cell.raw)
}

// EncodeTotals returns the cumulative raw (dense-equivalent) and encoded
// byte counts plus block count for one codec.
func (s *Stats) EncodeTotals(id ID) (rawBytes, encBytes, blocks int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cell, ok := s.enc[id]; ok {
		return cell.raw, cell.enc, cell.blocks
	}
	return 0, 0, 0
}

// Row is one {kind, codec} wire accounting entry (for trace sidecars and
// summaries).
type Row struct {
	Kind  string
	Codec string
	Bytes int64
	Msgs  int64
}

// Rows snapshots the wire counters, kinds named by kindName, sorted by kind
// then codec for deterministic output.
func (s *Stats) Rows(kindName func(wire.Kind) string) []Row {
	cells := s.wireRows()
	out := make([]Row, 0, len(cells))
	for kind, c := range cells {
		out = append(out, Row{
			Kind:  kindName(kind),
			Codec: s.labelOf(kind),
			Bytes: c.Bytes,
			Msgs:  c.Msgs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Codec < out[j].Codec
	})
	return out
}

// WritePrometheus renders the counters in Prometheus text format.
func (s *Stats) WritePrometheus(w io.Writer, kindName func(wire.Kind) string) {
	rows := s.Rows(kindName)
	fmt.Fprintln(w, "# HELP specsync_bytes_on_wire_total Bytes sent on the wire by message kind and codec.")
	fmt.Fprintln(w, "# TYPE specsync_bytes_on_wire_total counter")
	for _, row := range rows {
		fmt.Fprintf(w, "specsync_bytes_on_wire_total{kind=%q,codec=%q} %d\n", row.Kind, row.Codec, row.Bytes)
	}
	fmt.Fprintln(w, "# HELP specsync_codec_msgs_total Messages sent on the wire by message kind and codec.")
	fmt.Fprintln(w, "# TYPE specsync_codec_msgs_total counter")
	for _, row := range rows {
		fmt.Fprintf(w, "specsync_codec_msgs_total{kind=%q,codec=%q} %d\n", row.Kind, row.Codec, row.Msgs)
	}

	s.mu.Lock()
	ids := make([]ID, 0, len(s.enc))
	for id := range s.enc {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintln(w, "# HELP specsync_codec_compression_ratio Encoded bytes over dense float64 bytes, per codec.")
	fmt.Fprintln(w, "# TYPE specsync_codec_compression_ratio gauge")
	for _, id := range ids {
		fmt.Fprintf(w, "specsync_codec_compression_ratio{codec=%q} %g\n", id.String(), s.Ratio(id))
	}
	fmt.Fprintln(w, "# HELP specsync_codec_encoded_bytes_total Payload bytes produced by each codec's encoder.")
	fmt.Fprintln(w, "# TYPE specsync_codec_encoded_bytes_total counter")
	for _, id := range ids {
		_, enc, _ := s.EncodeTotals(id)
		fmt.Fprintf(w, "specsync_codec_encoded_bytes_total{codec=%q} %d\n", id.String(), enc)
	}
}
