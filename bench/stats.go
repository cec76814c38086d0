package main

import (
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"specsync/internal/metrics"
)

// metric is one named, unit-tagged number of the ledger.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of vs (mean of the two middles for an even
// count); NaN for an empty slice so a missing sample can never pass as 0.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile sorts a copy of vs and interpolates linearly between order
// statistics (metrics.Percentile); NaN for an empty slice.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return metrics.Percentile(s, 100*q)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the benchmark contract's spread rule is
// written in terms of.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// sample is one reading of the process-wide cost counters a measured window
// is bracketed with.
type sample struct {
	at    time.Time
	cpu   time.Duration // user+sys, all threads
	alloc uint64        // cumulative heap bytes allocated
	gcs   uint64        // completed GC cycles
}

var costSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// takeSample reads the counters without stopping the world
// (runtime.ReadMemStats would, inside the window it brackets).
func takeSample() sample {
	s := make([]rtmetrics.Sample, len(costSamples))
	copy(s, costSamples)
	rtmetrics.Read(s)
	m := takeMark()
	return sample{at: m.at, cpu: m.cpu, alloc: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}

// mark is a reading of the two clocks at the edge of a slice.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func takeMark() mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return mark{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// slice is a stretch of a measured window a fixed number of iterations long:
// 250/50/16 cluster-wide completions of a TCP window (15-50 ms on the
// reference box), 128 gradient calls of sim_paper's long run or 512 of a
// sim_fleet round (about 100 ms each). sim_fleet's slices are not alike - a
// retune every epoch over a growing history - so they are not pooled: its
// rounds are replays, and the sample is the round stitched from the fastest
// replay of each slice (stitch in main.go).
type slice struct {
	iters     int64
	wall, cpu time.Duration
}

// fastShare is the share of a run's samples the host-time metrics are read
// from: throughput is the 90th percentile of the samples' rates, CPU cost,
// iteration gap and set-up time the 10th percentile of theirs.
//
// The shared host only ever slows a sample down - for seconds at a time the
// same instructions take up to half as much CPU time again, with no steal
// shown - so the slow side of a run's samples is the neighbours' and the fast
// side is the program's. Measured over ten runs in such a spell, the median
// of the samples moved 4-15 % between runs and their fast decile 0.6-6 %.
const fastShare = 0.1

// fastRate is the rate the fastest tenth of the samples reached.
func fastRate(rates []float64) float64 { return quantile(rates, 1-fastShare) }

// fastCost is the cost (a time) the cheapest tenth of the samples stayed under.
func fastCost(costs []float64) float64 { return quantile(costs, fastShare) }

// gapChunk is how many consecutive iteration gaps make one sample of
// iter_p50_ms: the median of each chunk is a sample.
const gapChunk = 128

// chunkMedians cuts vs into runs of n and returns each run's median (a
// shorter last run is kept only if it is the only one).
func chunkMedians(vs []float64, n int) []float64 {
	if len(vs) <= n {
		return []float64{median(vs)}
	}
	out := make([]float64, 0, len(vs)/n)
	for i := 0; i+n <= len(vs); i += n {
		out = append(out, median(vs[i:i+n]))
	}
	return out
}

// slicesBetween turns consecutive marks, each iters iterations apart, into
// slices; slice i lies between marks i and i+1.
func slicesBetween(marks []mark, iters int64) []slice {
	if len(marks) < 2 {
		return nil
	}
	out := make([]slice, len(marks)-1)
	for i := range out {
		out[i] = slice{iters: iters, wall: marks[i+1].at.Sub(marks[i].at), cpu: marks[i+1].cpu - marks[i].cpu}
	}
	return out
}

// sliceSize picks the iterations per slice: the workload's calibrated size,
// shrunk so that even a scaled-down window holds a few slices.
func sliceSize(calibrated, windowIters int64) int64 {
	if q := windowIters / 4; q < calibrated {
		calibrated = q
	}
	if calibrated < 1 {
		calibrated = 1
	}
	return calibrated
}

// environment is printed with every result so a reader can tell a quiet
// 2-core box from a loaded one.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func readEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset"
	}
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		LoadAvg1:   -1,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env.LoadAvg1 = v
			}
		}
	}
	return env
}
