package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// jsonEvent is the JSONL wire form of an Event. Times are nanoseconds since
// the Unix epoch (virtual time in simulator traces).
type jsonEvent struct {
	At     int64  `json:"at"`
	Worker int    `json:"worker"`
	Kind   string `json:"kind"`
	Iter   int64  `json:"iter"`
	Value  int64  `json:"value,omitempty"`
}

// WireBytes is one bytes-on-wire accounting row: total bytes and message
// count for one {message kind, codec} pair over a run. Rows are appended to
// trace files after the event lines so tooling can report transfer volume
// alongside the event timeline.
type WireBytes struct {
	Kind  string
	Codec string
	Bytes int64
	Msgs  int64
}

// jsonLine is the union of an event line and a wire-accounting line. A
// non-empty "wire" field marks the latter; plain event lines never set it.
type jsonLine struct {
	jsonEvent
	Wire  string `json:"wire,omitempty"`
	Codec string `json:"codec,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Msgs  int64  `json:"msgs,omitempty"`
}

var kindNames = map[Kind]string{
	KindPull:      "pull",
	KindPush:      "push",
	KindAbort:     "abort",
	KindReSync:    "resync",
	KindStaleness: "staleness",
	KindEpoch:     "epoch",
	KindCrash:     "crash",
	KindRecover:   "recover",
	KindEvict:     "evict",
	KindJoin:      "join",
	KindLeave:     "leave",

	KindStragglerFlag:  "straggler-flag",
	KindStragglerClear: "straggler-clear",
	KindSchemeSwitch:   "scheme-switch",
	KindClone:          "clone",
	KindCloneStop:      "clone-stop",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// WriteJSONL streams events as one JSON object per line, the interchange
// format consumed by cmd/specsync-trace.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		name, ok := kindNames[ev.Kind]
		if !ok {
			return fmt.Errorf("trace: event %d has unknown kind %d", i, ev.Kind)
		}
		if err := enc.Encode(jsonEvent{
			At:     ev.At.UnixNano(),
			Worker: ev.Worker,
			Kind:   name,
			Iter:   ev.Iter,
			Value:  ev.Value,
		}); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// AppendWireBytes writes bytes-on-wire accounting rows in JSONL form.
// Callers append them after the event lines written by WriteJSONL; readers
// using ReadJSONL skip them, ReadJSONLFull returns them.
func AppendWireBytes(w io.Writer, rows []WireBytes) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, row := range rows {
		if row.Kind == "" {
			return fmt.Errorf("trace: wire row %d has empty kind", i)
		}
		if err := enc.Encode(jsonLine{
			Wire:  row.Kind,
			Codec: row.Codec,
			Bytes: row.Bytes,
			Msgs:  row.Msgs,
		}); err != nil {
			return fmt.Errorf("trace: encoding wire row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace produced by WriteJSONL, skipping any
// bytes-on-wire rows appended by AppendWireBytes.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, _, err := ReadJSONLFull(r)
	return events, err
}

// ReadJSONLFull parses a JSONL trace, returning both the event timeline and
// any bytes-on-wire accounting rows.
func ReadJSONLFull(r io.Reader) ([]Event, []WireBytes, error) {
	var out []Event
	var rows []WireBytes
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var jl jsonLine
		if err := json.Unmarshal(raw, &jl); err != nil {
			return nil, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if jl.Wire != "" {
			rows = append(rows, WireBytes{Kind: jl.Wire, Codec: jl.Codec, Bytes: jl.Bytes, Msgs: jl.Msgs})
			continue
		}
		kind, ok := kindByName[jl.Kind]
		if !ok {
			return nil, nil, fmt.Errorf("trace: line %d: unknown kind %q", line, jl.Kind)
		}
		out = append(out, Event{
			At:     time.Unix(0, jl.At),
			Worker: jl.Worker,
			Kind:   kind,
			Iter:   jl.Iter,
			Value:  jl.Value,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("trace: reading: %w", err)
	}
	return out, rows, nil
}

// FromEvents builds a Collector pre-populated with events (for analyzing
// loaded traces with the Collector's query methods).
func FromEvents(events []Event) *Collector {
	c := NewCollector()
	for _, ev := range events {
		c.Record(ev)
	}
	return c
}
