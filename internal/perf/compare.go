// Package perf diffs two BENCH_*.json reports so CI can gate on performance
// regressions: the committed baseline is the perf trajectory, and every run
// compares its fresh numbers against it.
//
// Reports are arbitrary JSON; Flatten walks them and keeps every numeric
// leaf under a dotted path (array elements keyed by their "name"/"codec"/
// "job" field when present, by index otherwise). Metric direction is
// inferred from the key name — ns/alloc/byte/second-like keys must not grow,
// *_per_sec-like keys must not shrink — and everything else is reported
// informationally but never gated.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Direction classifies how a metric is gated.
type Direction int

// Metric directions.
const (
	// Informational metrics are shown in the diff but never fail a compare.
	Informational Direction = iota
	// LowerIsBetter gates latency/allocation-like metrics against growth.
	LowerIsBetter
	// HigherIsBetter gates throughput-like metrics against shrinkage.
	HigherIsBetter
)

func (d Direction) String() string {
	switch d {
	case LowerIsBetter:
		return "lower-better"
	case HigherIsBetter:
		return "higher-better"
	default:
		return "info"
	}
}

// Options tunes the gate thresholds.
type Options struct {
	// TimeTolerance is the allowed fractional regression on time- and
	// throughput-like metrics (0.5 = the new value may be up to 50% worse
	// before the compare fails). Zero selects the default 0.5, so a 2×
	// regression always fails an unconfigured compare.
	TimeTolerance float64
	// AllocTolerance is the allowed fractional regression on allocation
	// counts, which are deterministic and therefore gated tighter. Zero
	// selects the default 0.25.
	AllocTolerance float64
}

func (o Options) withDefaults() Options {
	if o.TimeTolerance <= 0 {
		o.TimeTolerance = 0.5
	}
	if o.AllocTolerance <= 0 {
		o.AllocTolerance = 0.25
	}
	return o
}

// Delta is one metric's comparison row.
type Delta struct {
	Key       string
	Old, New  float64
	Direction Direction
	Tolerance float64 // fractional worsening allowed; 0 for informational
	// WorseFrac is the fractional worsening in the slowdown domain, sign-
	// normalized so positive is worse regardless of direction: (new-old)/old
	// for lower-better, old/new - 1 for higher-better (a halved throughput
	// scores 1.0, same as a doubled latency).
	WorseFrac float64
	Regressed bool
}

// Result is a full report comparison.
type Result struct {
	Deltas  []Delta
	OldOnly []string // keys present only in the baseline
	NewOnly []string // keys present only in the new report
}

// Regressions returns the deltas that exceeded their tolerance.
func (r *Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Flatten extracts every numeric leaf of a JSON document into dotted-path
// keys.
func Flatten(data []byte) (map[string]float64, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	flattenInto(out, "", v)
	return out, nil
}

func flattenInto(out map[string]float64, prefix string, v any) {
	switch t := v.(type) {
	case float64:
		out[prefix] = t
	case map[string]any:
		for k, sub := range t {
			flattenInto(out, joinKey(prefix, k), sub)
		}
	case []any:
		for i, sub := range t {
			flattenInto(out, joinKey(prefix, elemKey(sub, i)), sub)
		}
	}
}

func joinKey(prefix, k string) string {
	if prefix == "" {
		return k
	}
	return prefix + "." + k
}

// elemKey names one array element: by its identifying string field when the
// element is an object carrying one, by position otherwise, so reordering a
// named results table does not shuffle the comparison.
func elemKey(v any, i int) string {
	if m, ok := v.(map[string]any); ok {
		for _, field := range []string{"name", "codec", "job", "id"} {
			if s, ok := m[field].(string); ok && s != "" {
				return s
			}
		}
	}
	return fmt.Sprintf("%d", i)
}

// Classify infers a metric's gate direction from its key name.
func Classify(key string) Direction {
	last := key
	if i := strings.LastIndex(key, "."); i >= 0 {
		last = key[i+1:]
	}
	switch {
	case strings.Contains(last, "per_sec"), strings.Contains(last, "throughput"):
		return HigherIsBetter
	case strings.Contains(last, "ns_"), strings.Contains(last, "_ns"),
		strings.Contains(last, "allocs"), strings.Contains(last, "bytes_per"),
		strings.Contains(last, "seconds_per"), strings.Contains(last, "wall_seconds"):
		return LowerIsBetter
	default:
		return Informational
	}
}

func isAllocKey(key string) bool {
	return strings.Contains(key, "allocs")
}

// Compare diffs two JSON reports and gates each shared metric by its
// inferred direction.
func Compare(oldJSON, newJSON []byte, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	oldM, err := Flatten(oldJSON)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	newM, err := Flatten(newJSON)
	if err != nil {
		return nil, fmt.Errorf("new report: %w", err)
	}
	res := &Result{}
	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		if _, ok := newM[k]; ok {
			keys = append(keys, k)
		} else {
			res.OldOnly = append(res.OldOnly, k)
		}
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok {
			res.NewOnly = append(res.NewOnly, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(res.OldOnly)
	sort.Strings(res.NewOnly)
	for _, k := range keys {
		d := Delta{Key: k, Old: oldM[k], New: newM[k], Direction: Classify(k)}
		switch {
		case d.Direction == Informational:
		case d.Old != 0:
			switch d.Direction {
			case LowerIsBetter:
				d.WorseFrac = (d.New - d.Old) / d.Old
			case HigherIsBetter:
				// Expressed in the slowdown domain so a halved throughput
				// scores the same 1.0 as a doubled latency: old/new - 1.
				if d.New > 0 {
					d.WorseFrac = d.Old/d.New - 1
				} else {
					d.WorseFrac = math.Inf(1)
				}
			}
			d.Tolerance = opts.TimeTolerance
			if isAllocKey(k) {
				d.Tolerance = opts.AllocTolerance
			}
			d.Regressed = d.WorseFrac > d.Tolerance
		case isAllocKey(k) && d.New > 0:
			// A pinned zero has no fraction to worsen by: any allocation on
			// a path the baseline ran alloc-free is a regression.
			d.Tolerance = opts.AllocTolerance
			d.WorseFrac = math.Inf(1)
			d.Regressed = true
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res, nil
}

// Render writes the comparison as an aligned table, regressions marked.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%-52s %14s %14s %9s  %s\n", "metric", "old", "new", "delta", "verdict")
	for _, d := range r.Deltas {
		verdict := d.Direction.String()
		if d.Direction != Informational {
			verdict = "ok"
			if d.Regressed {
				verdict = fmt.Sprintf("REGRESSED (>%.0f%%)", d.Tolerance*100)
			}
		}
		delta := "-"
		if d.Old != 0 {
			delta = fmt.Sprintf("%+.1f%%", (d.New-d.Old)/d.Old*100)
		}
		fmt.Fprintf(w, "%-52s %14.4g %14.4g %9s  %s\n", d.Key, d.Old, d.New, delta, verdict)
	}
	for _, k := range r.OldOnly {
		fmt.Fprintf(w, "%-52s only in baseline\n", k)
	}
	for _, k := range r.NewOnly {
		fmt.Fprintf(w, "%-52s only in new report\n", k)
	}
}
