package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"specsync/internal/node"
	"specsync/internal/trace"
)

// Span is one phase of an iteration lifecycle (pull, compute, push) or an
// instantaneous marker (resync, epoch, crash, ...). Times come from
// node.Context.Now(), so sim spans carry virtual time and live spans carry
// wall time through the same code path.
type Span struct {
	Node  string    // track name, e.g. "worker/3", "scheduler"
	Name  string    // slice name, e.g. "pull", "compute", "resync"
	Start time.Time // phase begin
	End   time.Time // phase end; zero means instantaneous
	Iter  int64     // worker iteration the phase belongs to
	Value int64     // kind-specific payload (staleness, window count)

	// Link carries an abort-causality flow id: the scheduler's resync span
	// sets LinkStart and the aborted compute span on the worker closes the
	// same id, so Perfetto draws an arrow from cause to effect.
	Link      string
	LinkStart bool
}

// FlowID builds the deterministic abort-causality id shared by a re-sync
// span and the compute span it aborted. msg.ReSync.Iter echoes the worker's
// in-flight iteration, so (worker, iter) identifies the pair on both sides
// without widening any wire message.
func FlowID(worker int, iter int64) string {
	return fmt.Sprintf("resync/w%d/i%d", worker, iter)
}

// SpanLog is a concurrency-safe in-memory span sink. A nil log ignores
// writes, so span retention stays opt-in with no branches at call sites.
type SpanLog struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanLog returns an empty log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// Add appends one span. No-op on a nil log.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Len returns the number of retained spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Spans returns a copy of the retained spans in insertion order.
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

// WriteChromeTrace exports the log as Chrome trace-event JSON.
func (l *SpanLog) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, l.Spans())
}

// chromeEvent is one entry of the Chrome trace-event format. Field order is
// fixed by the struct, and args maps are marshalled with sorted keys, so the
// byte output is a pure function of the span list.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   *int64         `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope
	Cat   string         `json:"cat,omitempty"`
	ID    string         `json:"id,omitempty"` // flow id
	BP    string         `json:"bp,omitempty"` // flow binding point
	Args  map[string]any `json:"args,omitempty"`
}

const flowCat = "abort-causality"

// WriteChromeTrace writes spans as Chrome trace-event JSON ("JSON object
// format"), viewable in Perfetto or chrome://tracing. Timestamps are integer
// microseconds since the Unix epoch — the simulator's virtual clock starts at
// Unix(0,0), so sim traces begin at ts 0. The output is deterministic:
// tracks are numbered by sorted node name, events are stably sorted by
// timestamp, and every map is marshalled with sorted keys.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	nodes := make([]string, 0, 8)
	seen := make(map[string]bool)
	for _, s := range spans {
		if !seen[s.Node] {
			seen[s.Node] = true
			nodes = append(nodes, s.Node)
		}
	}
	sort.Strings(nodes)
	tid := make(map[string]int, len(nodes))
	for i, n := range nodes {
		tid[n] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)*2+len(nodes)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "specsync"},
	})
	for _, n := range nodes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid[n],
			Args: map[string]any{"name": n},
		})
	}

	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Start.Before(sorted[j].Start)
	})

	for _, s := range sorted {
		ts := micros(s.Start)
		args := map[string]any{"iter": s.Iter}
		if s.Value != 0 {
			args["value"] = s.Value
		}
		t := tid[s.Node]
		if s.End.IsZero() && s.Link == "" {
			// Pure marker with no flow attachment: a thread-scoped instant.
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "i", Ts: ts, Pid: 1, Tid: t, Scope: "t", Args: args,
			})
			continue
		}
		// Complete slice; flow endpoints must bind to a slice, so linked
		// markers become zero-duration slices.
		dur := int64(0)
		if !s.End.IsZero() {
			dur = micros(s.End) - ts
			if dur < 0 {
				dur = 0
			}
		}
		d := dur
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: ts, Dur: &d, Pid: 1, Tid: t, Args: args,
		})
		if s.Link != "" {
			if s.LinkStart {
				events = append(events, chromeEvent{
					Name: "abort", Ph: "s", Ts: ts, Pid: 1, Tid: t,
					Cat: flowCat, ID: s.Link,
				})
			} else {
				// Bind to the enclosing (aborted) slice's end.
				events = append(events, chromeEvent{
					Name: "abort", Ph: "f", Ts: ts + dur, Pid: 1, Tid: t,
					Cat: flowCat, ID: s.Link, BP: "e",
				})
			}
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func micros(t time.Time) int64 { return t.UnixNano() / int64(time.Microsecond) }

// SpansFromTrace derives a span view from a recorded trace.Event stream
// (e.g. a JSONL dump from `specsync-trace record`). The raw trace only keeps
// phase completions, so each pull→push interval becomes one "iter" slice,
// pull→abort becomes an "iter (aborted)" slice flow-linked to the scheduler's
// triggering re-sync, and everything else becomes instant markers.
func SpansFromTrace(events []trace.Event) []Span {
	type open struct {
		at   time.Time
		iter int64
		live bool
	}
	pulls := make(map[int]*open)
	lastIter := make(map[int]int) // worker -> index of last closed iter span
	var out []Span

	workerNode := func(i int) string { return string(node.WorkerID(i)) }
	faultNode := func(w int) string {
		if w >= 0 {
			return workerNode(w)
		}
		return string(node.ServerID(-w - 1))
	}

	for _, ev := range events {
		switch ev.Kind {
		case trace.KindPull:
			st := pulls[ev.Worker]
			if st == nil {
				st = &open{}
				pulls[ev.Worker] = st
			}
			st.at, st.iter, st.live = ev.At, ev.Iter, true
		case trace.KindPush:
			if st := pulls[ev.Worker]; st != nil && st.live {
				st.live = false
				out = append(out, Span{
					Node: workerNode(ev.Worker), Name: "iter",
					Start: st.at, End: ev.At, Iter: ev.Iter,
				})
				lastIter[ev.Worker] = len(out) - 1
			} else {
				out = append(out, Span{
					Node: workerNode(ev.Worker), Name: "push", Start: ev.At, Iter: ev.Iter,
				})
			}
		case trace.KindAbort:
			if st := pulls[ev.Worker]; st != nil && st.live {
				st.live = false
				out = append(out, Span{
					Node: workerNode(ev.Worker), Name: "iter (aborted)",
					Start: st.at, End: ev.At, Iter: ev.Iter, Value: ev.Value,
					Link: FlowID(ev.Worker, ev.Iter),
				})
			}
		case trace.KindStaleness:
			if i, ok := lastIter[ev.Worker]; ok {
				out[i].Value = ev.Value
			}
		case trace.KindReSync:
			out = append(out, Span{
				Node: "scheduler", Name: "resync", Start: ev.At,
				Iter: ev.Iter, Value: ev.Value,
				Link: FlowID(ev.Worker, ev.Iter), LinkStart: true,
			})
		case trace.KindEpoch:
			out = append(out, Span{Node: "scheduler", Name: "epoch", Start: ev.At, Iter: ev.Iter})
		case trace.KindCrash:
			out = append(out, Span{Node: faultNode(ev.Worker), Name: "crash", Start: ev.At})
		case trace.KindRecover:
			out = append(out, Span{Node: faultNode(ev.Worker), Name: "recover", Start: ev.At})
		case trace.KindEvict:
			out = append(out, Span{Node: "scheduler", Name: "evict", Start: ev.At, Value: ev.Value})
		case trace.KindJoin:
			// Membership changes live on the scheduler track (it owns
			// membership); the worker index rides in the span's name.
			out = append(out, Span{Node: "scheduler", Name: fmt.Sprintf("join worker/%d", ev.Worker), Start: ev.At, Value: ev.Value})
		case trace.KindLeave:
			out = append(out, Span{Node: "scheduler", Name: fmt.Sprintf("retire worker/%d", ev.Worker), Start: ev.At, Value: ev.Value})
		}
	}
	return out
}
