// Command specsync-trace records and analyzes training event traces.
//
// Record a trace (one simulated run from a run spec, events as JSONL; a
// spec with "target_loss": 0 records its whole max_virtual horizon):
//
//	specsync-trace record -spec examples/specs/trace-cifar10-asp.json -out trace.jsonl
//
// Analyze the pushes-after-pull distribution (paper Sec. III-A / Fig. 3):
//
//	specsync-trace pap -in trace.jsonl -interval 1s -buckets 10
//
// Summarize a trace (event counts, per-worker activity, staleness and fault
// stats):
//
//	specsync-trace summary -in trace.jsonl
//
// Convert a trace to Chrome trace-event JSON, viewable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing:
//
//	specsync-trace spans -in trace.jsonl -out spans.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/metrics"
	"specsync/internal/msg"
	"specsync/internal/obs"
	"specsync/internal/trace"
	"specsync/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: specsync-trace record|pap|summary|spans [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "pap":
		err = pap(os.Args[2:])
	case "summary":
		err = summary(os.Args[2:])
	case "spans":
		err = spans(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "specsync-trace:", err)
		os.Exit(1)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "run spec (JSON, see examples/specs)")
		out      = fs.String("out", "trace.jsonl", "output JSONL path")
		spanOut  = fs.String("span-out", "", "also write Chrome trace-event JSON spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("record: -spec is required")
	}
	cfg, err := cluster.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	cfg.KeepTrace = true
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	events := res.Trace.Events()
	if err := trace.WriteJSONL(f, events); err != nil {
		return err
	}
	// Append per-{kind,codec} bytes-on-wire accounting after the event lines;
	// summary reports it and ReadJSONL-based tools skip it.
	reg := msg.Registry()
	var rows []trace.WireBytes
	for _, row := range res.Codec.Rows(func(k wire.Kind) string { return reg.Name(k) }) {
		rows = append(rows, trace.WireBytes{Kind: row.Kind, Codec: row.Codec, Bytes: row.Bytes, Msgs: row.Msgs})
	}
	if err := trace.AppendWireBytes(f, rows); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d events over %v (virtual) to %s\n", len(events), res.Elapsed, *out)
	if *spanOut != "" {
		if err := writeSpans(*spanOut, events); err != nil {
			return err
		}
		fmt.Printf("spans written to %s (open in Perfetto / chrome://tracing)\n", *spanOut)
	}
	return nil
}

// spans converts a recorded JSONL trace into Chrome trace-event JSON.
func spans(args []string) error {
	fs := flag.NewFlagSet("spans", flag.ContinueOnError)
	var (
		in  = fs.String("in", "trace.jsonl", "input JSONL trace")
		out = fs.String("out", "spans.json", "output Chrome trace-event JSON path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}
	if err := writeSpans(*out, events); err != nil {
		return err
	}
	fmt.Printf("%d events -> %s (open in Perfetto / chrome://tracing)\n", len(events), *out)
	return nil
}

func writeSpans(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, obs.SpansFromTrace(events)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func load(path string) (*trace.Collector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	return trace.FromEvents(events), nil
}

func pap(args []string) error {
	fs := flag.NewFlagSet("pap", flag.ContinueOnError)
	var (
		in       = fs.String("in", "trace.jsonl", "input JSONL trace")
		interval = fs.Duration("interval", time.Second, "bucket width (paper uses 1s)")
		buckets  = fs.Int("buckets", 10, "number of intervals after each pull")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := load(*in)
	if err != nil {
		return err
	}
	res := c.PAP(trace.PAPConfig{Interval: *interval, Buckets: *buckets})
	fmt.Printf("pushes-after-pull distribution (%s, interval %v)\n", *in, *interval)
	fmt.Printf("%-16s %6s %6s %6s %6s %6s %8s\n", "interval", "p5", "p25", "p50", "p75", "p95", "samples")
	for k, samples := range res.PerBucket {
		b := metrics.BoxOf(samples)
		lo := time.Duration(k) * *interval
		fmt.Printf("%-16s %6.1f %6.1f %6.1f %6.1f %6.1f %8d\n",
			fmt.Sprintf("%v-%v", lo, lo+*interval), b.P5, b.P25, b.P50, b.P75, b.P95, b.N)
	}
	return nil
}

func summary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	in := fs.String("in", "trace.jsonl", "input JSONL trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	rawEvents, wireRows, err := trace.ReadJSONLFull(f)
	f.Close()
	if err != nil {
		return err
	}
	c := trace.FromEvents(rawEvents)
	events := c.Events()
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}

	kinds := []trace.Kind{
		trace.KindPull, trace.KindPush, trace.KindAbort, trace.KindReSync,
		trace.KindStaleness, trace.KindEpoch,
		trace.KindCrash, trace.KindRecover, trace.KindEvict,
		trace.KindJoin, trace.KindLeave,
	}
	fmt.Printf("trace %s: %d events, span %v\n", *in, len(events),
		events[len(events)-1].At.Sub(events[0].At))
	for _, k := range kinds {
		fmt.Printf("  %-10s %d\n", k, c.Count(k))
	}

	var stale []float64
	for _, ev := range events {
		if ev.Kind == trace.KindStaleness {
			stale = append(stale, float64(ev.Value))
		}
	}
	if len(stale) > 0 {
		b := metrics.BoxOf(stale)
		fmt.Printf("staleness: p5=%.0f p25=%.0f median=%.0f p75=%.0f p95=%.0f\n",
			b.P5, b.P25, b.P50, b.P75, b.P95)
	}

	if len(wireRows) > 0 {
		var total int64
		fmt.Println("bytes on wire per message kind:")
		fmt.Printf("  %-14s %-6s %12s %8s\n", "kind", "codec", "bytes", "msgs")
		for _, row := range wireRows {
			fmt.Printf("  %-14s %-6s %12d %8d\n", row.Kind, row.Codec, row.Bytes, row.Msgs)
			total += row.Bytes
		}
		fmt.Printf("  %-14s %-6s %12d\n", "total", "", total)
	}

	// Membership changes (rebalance runs; empty otherwise).
	if joins, leaves := c.Count(trace.KindJoin), c.Count(trace.KindLeave); joins+leaves > 0 {
		fmt.Printf("membership: %d joins, %d leaves\n", joins, leaves)
	}

	byWorker := c.CountByWorker(trace.KindPush)
	workers := make([]int, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	fmt.Println("pushes per worker:")
	for _, w := range workers {
		fmt.Printf("  worker %-3d %d\n", w, byWorker[w])
	}

	// Fault activity per node (fault-injection runs; empty otherwise).
	type faultRow struct{ crashes, recovers, evicts int }
	faults := map[int]*faultRow{}
	get := func(w int) *faultRow {
		r, ok := faults[w]
		if !ok {
			r = &faultRow{}
			faults[w] = r
		}
		return r
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindCrash:
			get(ev.Worker).crashes++
		case trace.KindRecover:
			get(ev.Worker).recovers++
		case trace.KindEvict:
			get(ev.Worker).evicts++
		}
	}
	if len(faults) > 0 {
		nodes := make([]int, 0, len(faults))
		for w := range faults {
			nodes = append(nodes, w)
		}
		sort.Ints(nodes)
		fmt.Println("fault activity per node:")
		for _, w := range nodes {
			r := faults[w]
			// Negative indexes are server shards, per the trace convention.
			name := fmt.Sprintf("worker %d", w)
			if w < 0 {
				name = fmt.Sprintf("server %d", -w-1)
			}
			fmt.Printf("  %-10s crashes=%d recovers=%d evicts=%d\n", name, r.crashes, r.recovers, r.evicts)
		}
	}
	return nil
}
