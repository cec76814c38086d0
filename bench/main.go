// Command bench is the repository's performance ledger: five workloads
// (three loopback-TCP clusters, two discrete-event simulations), eight
// end-to-end metrics with regression bounds, and a traced mode that splits
// them across the repo's layers. It claims no gain; it is the yardstick.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
//	go -C bench run . -workload tcp_ctrl -seed 1 -seconds 16 -trace 0
//	go -C bench run . -workload all -seed 1
//	go -C bench run . -workload sim_fleet -trace 1 -trace-out /tmp/fleet.json
//	go -C bench run . -workload all -aa 10 -aa-vary
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"specsync/internal/msg"
)

// minSetups is how many set-ups every run performs at least, so setup_s has
// a fast end to read even when one round fills the measured time.
const minSetups = 5

// report is one workload's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	digest   string // DES parameter digest ("" on a TCP workload's live run)
}

func main() {
	// One P for every workload. A loopback cluster spread over two shared
	// vCPUs is timed by where the host puts its threads and how fast it wakes
	// a halted vCPU (tcp_ctrl ran 15 % *faster* with a neighbour squeezing it
	// onto one core); on one P the iteration is the program's own CPU cost,
	// wall and CPU time agree, and the DES workloads' GC needs no second core.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "tcp_ctrl, tcp_dense, tcp_topk, sim_paper, sim_fleet, or all")
		seed     = fs.Int64("seed", 1, "drives every generated input: data, initial vector, node seeds")
		seconds  = fs.Float64("seconds", 16, "measured time per run; rounds repeat until it is reached")
		traced   = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file, at a quarter of the budgets")
		traceOut = fs.String("trace-out", "", "trace file path (default .bench_build/trace_<workload>.json)")
		aa       = fs.Int("aa", 0, "run each workload N times and judge the spread of every end-to-end metric against its bound")
		aaVary   = fs.Bool("aa-vary", false, "with -aa: run i uses seed+i (the acceptance procedure) instead of one seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var chosen []spec
	if *workload == "all" {
		chosen = specs
	} else if sp, ok := specByName(*workload); ok {
		chosen = []spec{sp}
	} else {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *aa < 0 {
		return fmt.Errorf("-seconds must be positive, -trace 0 or 1, -aa non-negative")
	}

	env := readEnvironment()
	envJSON, _ := json.Marshal(env) // plain struct of numbers and strings
	fmt.Fprintf(stderr, "bench: environment %s\n", envJSON)
	if env.LoadAvg1 > 0.5 {
		fmt.Fprintf(stderr, "bench: warning: 1-minute load average %.2f > 0.5; timings will be noisy\n", env.LoadAvg1)
	}

	window := time.Duration(*seconds * float64(time.Second))
	if *aa > 0 {
		return runAA(chosen, *seed, window, *aa, *aaVary, stdout, stderr)
	}
	failed := false
	for _, sp := range chosen {
		var rep *report
		var err error
		if *traced == 1 {
			path := *traceOut
			if path == "" {
				path = ".bench_build/trace_" + sp.name + ".json"
			}
			rep, err = runTraced(sp, *seed, window, path, stderr)
		} else {
			rep, err = runLedger(sp, *seed, window, minSetups, stderr)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", sp.name, p)
		}
		failed = failed || !rep.Correct
		if err := printReport(stdout, sp.name, rep, len(chosen) > 1); err != nil {
			return err
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// printReport writes the result line: exactly correct/attempted/failed/
// metrics for a single workload, with the workload's name added under "all".
func printReport(w io.Writer, name string, rep *report, named bool) error {
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, k, m.Value)
		}
	}
	var line any = rep
	if named {
		line = struct {
			Workload string `json:"workload"`
			*report
		}{name, rep}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runRound runs one sample of either kind.
func runRound(sp spec, seed int64, tr *tracer) (*round, error) {
	if sp.tcp {
		return runTCPRound(sp, seed, tr)
	}
	return runSimRound(sp, seed, tr)
}

// runRounds repeats rounds until they have measured for window, to the
// nearest whole round (sim_paper's 13 s round runs once in 16 s, not twice),
// then tops the set-up count up to wantSetups with rounds whose window is a
// single iteration. It returns the measured rounds and every set-up time.
func runRounds(sp spec, seed int64, window time.Duration, wantSetups int) (rounds []*round, setups []float64, err error) {
	var measured, last time.Duration
	for measured+last/2 < window || len(rounds) == 0 {
		r, err := runRound(sp, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, r)
		setups = append(setups, r.setup.Seconds())
		measured, last = measured+r.wall, r.wall
		if len(r.problems) > 0 {
			break // a failed check will not get better by repeating it
		}
	}
	short := sp
	short.budget, short.pad = 1, 1
	for len(setups) < wantSetups {
		r, err := runRound(short, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	return rounds, setups, nil
}

// each lists one figure per round.
func each(rounds []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// total sums one figure over the rounds.
func total(rounds []*round, f func(*round) float64) (s float64) {
	for _, v := range each(rounds, f) {
		s += v
	}
	return s
}

// allGaps pools every round's completion gaps.
func allGaps(rounds []*round) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r.gapsMs...)
	}
	return out
}

// gapSamples lists the median of every gapChunk consecutive host-clock gaps
// of every round.
func gapSamples(rounds []*round) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, chunkMedians(r.gapsMs, gapChunk)...)
	}
	return out
}

// timeFigures lists the samples behind the two host-time metrics:
// throughput (1/s) and CPU cost (us per iteration) of every slice of every
// round - or, where the rounds are replays of each other, of the one round
// stitched from the fastest replay of each slice.
func timeFigures(sp spec, rounds []*round) (rates, cpus []float64) {
	add := func(iters int64, wall, cpu time.Duration) {
		if wall > 0 { // two marks taken out of order make no slice
			rates = append(rates, float64(iters)/wall.Seconds())
			cpus = append(cpus, usPerIter(cpu, iters))
		}
	}
	if st, ok := stitch(rounds); ok && sp.replayed() {
		add(st.iters, st.wall, st.cpu)
		return rates, cpus
	}
	for _, r := range rounds {
		if len(r.slices) == 0 {
			add(r.iters, r.wall, r.cpu)
		}
		for _, s := range r.slices {
			add(s.iters, s.wall, s.cpu)
		}
	}
	return rates, cpus
}

// stitch builds one round out of replays: slice k of every round is the same
// work, so its time is read from the fast end of the k-th slices (fastCost),
// and the stitched round is the sum. A neighbour has to be busy through the
// same tenth of a second of most replays to slow it, not through any two
// seconds of each. ok is false unless every round has the same slices.
func stitch(rounds []*round) (st slice, ok bool) {
	n := len(rounds[0].slices)
	for _, r := range rounds {
		if len(r.slices) != n {
			return slice{}, false
		}
	}
	for k := 0; k < n; k++ {
		walls := each(rounds, func(r *round) float64 { return float64(r.slices[k].wall) })
		cpus := each(rounds, func(r *round) float64 { return float64(r.slices[k].cpu) })
		st.iters += rounds[0].slices[k].iters
		st.wall += time.Duration(fastCost(walls))
		st.cpu += time.Duration(fastCost(cpus))
	}
	return st, n > 0
}

// runLedger is the untraced run: the end-to-end metrics.
func runLedger(sp spec, seed int64, window time.Duration, wantSetups int, stderr io.Writer) (*report, error) {
	rounds, setups, err := runRounds(sp, seed, window, wantSetups)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	for i, r := range rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, p := range r.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %s", i, p))
		}
	}

	// The exact figures: a DES round repeats bit for bit (checked here on
	// every run that has more than one round); a TCP workload takes them
	// from the DES twin of its inputs.
	first := rounds[0]
	virtual, itersAtTarget, digest := first.virtual, first.itersAtTarget, first.digest
	if sp.tcp {
		in, err := sp.inputs(seed)
		if err != nil {
			return nil, err
		}
		twin, err := sp.twin(in)
		if err != nil {
			return nil, err
		}
		virtual, itersAtTarget, digest = twin.virtual, twin.itersAtTarget, twin.digest
	} else {
		for i, r := range rounds[1:] {
			if r.digest != first.digest || r.virtual != first.virtual || r.wireBytes != first.wireBytes {
				rep.problems = append(rep.problems, fmt.Sprintf("round %d is not a replay of round 0: digest %.12s vs %.12s, virtual %v vs %v, wire bytes %d vs %d",
					i+1, r.digest, first.digest, r.virtual, first.virtual, r.wireBytes, first.wireBytes))
			}
		}
	}
	rep.digest = digest

	gaps := allGaps(rounds)
	rates, cpus := timeFigures(sp, rounds)
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	put("iters_per_s", fastRate(rates), "1/s")
	if sp.tcp {
		put("iter_p50_ms", fastCost(gapSamples(rounds)), "ms")
	} else {
		put("iter_p50_ms", median(gaps), "ms") // the virtual clock: exact, nothing to shed
	}
	put("cpu_us_per_iter", fastCost(cpus), "us")
	put("wire_bytes_per_iter", median(each(rounds, func(r *round) float64 { return float64(r.wireBytes) / float64(r.iters) })), "B")
	put("alloc_bytes_per_iter", median(each(rounds, func(r *round) float64 { return float64(r.alloc) / float64(r.iters) })), "B")
	put("setup_s", fastCost(setups), "s")
	put("sim_virtual_s", virtual.Seconds(), "s")
	put("sim_iters_to_target", float64(itersAtTarget), "count")
	for name, m := range rep.Metrics {
		if !(m.Value > 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("%s = %v, want a positive number", name, m.Value))
		}
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0

	last := rounds[len(rounds)-1]
	fmt.Fprintf(stderr, "bench: %s seed %d: %d rounds, %d set-ups, %d time samples, %d iteration gaps (p99 %.4g ms), final loss %.6g, params digest %.16s, ops_attempted %d, ops_failed %d\n",
		sp, seed, len(rounds), len(setups), len(rates), len(gaps), quantile(gaps, 0.99), last.finalLoss, digest, rep.Attempted, rep.Failed)
	return rep, nil
}

// traced returns the spec at the traced run's quarter budget.
func (sp spec) traced() spec {
	if sp.budget == 0 {
		sp.budget = 100 // sim_paper: about a quarter of the iterations to its target
	} else if sp.budget /= 4; sp.budget < 2 {
		sp.budget = 2
	}
	return sp
}

// runTraced is the traced run: untraced and traced rounds alternate at a
// quarter of the budgets, and the per-layer metrics come from the traced
// rounds' spans, the untraced rounds' counters and the layer replays.
func runTraced(sp spec, seed int64, window time.Duration, tracePath string, stderr io.Writer) (*report, error) {
	sp = sp.traced()
	var plain, traced []*round
	var lastTrace *tracer
	st := newSpanStats()
	var measured time.Duration
	for measured < window || len(traced) == 0 {
		p, err := runRound(sp, seed, nil)
		if err != nil {
			return nil, err
		}
		lastTrace = newTracer()
		t, err := runRound(sp, seed, lastTrace)
		if err != nil {
			return nil, err
		}
		lastTrace.addTo(st)
		plain, traced = append(plain, p), append(traced, t)
		measured += p.wall + t.wall
		if !sp.tcp && (p.digest != t.digest || p.virtual != t.virtual || p.wireBytes != t.wireBytes) {
			// The decorators only read the clock, so the traced assembly must
			// end on the same parameters, bit for bit, as cluster.Run.
			t.problemf("traced assembly diverged from cluster.Run: digest %.12s vs %.12s, virtual %v vs %v",
				t.digest, p.digest, t.virtual, p.virtual)
		}
		if len(p.problems)+len(t.problems) > 0 {
			break
		}
	}
	all := append(append([]*round(nil), plain...), traced...)
	rep := &report{Metrics: map[string]metric{}}
	for _, r := range all {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.problems = append(rep.problems, r.problems...)
	}
	in, err := sp.inputs(seed)
	if err != nil {
		return nil, err
	}
	if err := sp.replayLayers(in, rep.Metrics); err != nil {
		return nil, err
	}
	if err := lastTrace.writeChrome(tracePath, msg.Registry()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	spanIters := int64(total(traced, func(r *round) float64 { return float64(r.attempted - r.failed) }))
	iters := func(rounds []*round) float64 {
		return total(rounds, func(r *round) float64 { return float64(r.iters) })
	}
	perSpanIter := func(d time.Duration) float64 { return usPerIter(d, spanIters) }
	orZero := func(v float64) float64 { // medians of spans a workload never produces
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }

	put("worker.recv_busy_us_per_iter", perSpanIter(st.recvBusy["worker"]), "us")
	put("worker.cb_busy_us_per_iter", perSpanIter(st.cbBusy["worker"]), "us")
	put("worker.pull_wait_us_p50", orZero(median(st.pullWaits)), "us")
	put("worker.push_wait_us_p50", orZero(median(st.pushWaits)), "us")
	put("worker.msgs_per_iter", float64(st.recvCount["worker"])/float64(spanIters), "count")
	put("ps.recv_busy_us_per_iter", perSpanIter(st.recvBusy["ps"]), "us")
	put("ps.apply_us", orZero(median(st.applyUs)), "us")
	put("ps.pull_us", orZero(median(st.pullUs)), "us")
	put("ps.staleness_mean", median(each(plain, func(r *round) float64 { return r.stalenessMean })), "count")
	put("core.recv_busy_us_per_iter", perSpanIter(st.recvBusy["core"]), "us")
	resyncs := total(plain, func(r *round) float64 { return float64(r.resyncs) })
	put("core.resyncs_per_kiter", 1e3*resyncs/total(plain, func(r *round) float64 { return float64(r.attempted - r.failed) }), "count")
	put("core.abort_per_resync", 0, "ratio")
	if resyncs > 0 {
		put("core.abort_per_resync", total(plain, func(r *round) float64 { return float64(r.aborts) })/resyncs, "ratio")
	}

	frames := total(plain, func(r *round) float64 { return float64(r.frames) })
	put("transport.frames_per_iter", 0, "count")
	put("transport.bytes_per_frame", 0, "B")
	put("live.send_call_us", 0, "us")
	put("des.events_per_iter", 0, "count")
	put("des.events_per_host_s", 0, "1/s")
	if sp.tcp {
		put("transport.frames_per_iter", frames/iters(plain), "count")
		put("transport.bytes_per_frame", total(plain, func(r *round) float64 { return float64(r.wireBytes) })/frames, "B")
		put("live.send_call_us", median(st.sendUs), "us")
	} else {
		events := total(plain, func(r *round) float64 { return float64(r.events) })
		put("des.events_per_iter", events/iters(plain), "count")
		put("des.events_per_host_s", events/total(plain, func(r *round) float64 { return r.wall.Seconds() }), "1/s")
	}

	put("cluster.iter_p99_ms", quantile(allGaps(plain), 0.99), "ms")
	put("cluster.gc_cycles_per_kiter", 1e3*total(plain, func(r *round) float64 { return float64(r.gcs) })/iters(plain), "count")
	put("cluster.final_loss", plain[len(plain)-1].finalLoss, "loss")
	put("setup.build_s", median(each(all, func(r *round) float64 { return r.build.Seconds() })), "s")
	put("setup.connect_s", median(each(all, func(r *round) float64 { return r.connect.Seconds() })), "s")
	put("setup.warmup_s", median(each(all, func(r *round) float64 { return r.warmup.Seconds() })), "s")

	// Attribution: time inside handlers and their sends (spans), plus decoding
	// the data frames and dispatching the simulator's events (unit cost x
	// count), against the traced rounds' own CPU per iteration.
	plainRates, _ := timeFigures(sp, plain)
	tracedRates, tracedCPUs := timeFigures(sp, traced)
	put("trace.overhead_frac", 1-fastRate(tracedRates)/fastRate(plainRates), "ratio")
	tracedCPU := fastCost(tracedCPUs)
	attributed := perSpanIter(st.self["worker"]+st.self["ps"]+st.self["core"]+st.sendTotal) +
		rep.Metrics["wire.unmarshal_us"].Value/2*total(plain, func(r *round) float64 { return float64(r.dataFrames) })/iters(plain) +
		rep.Metrics["des.event_ns"].Value/1e3*rep.Metrics["des.events_per_iter"].Value
	put("cluster.unattributed_cpu_frac", 1-attributed/tracedCPU, "ratio")

	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	fmt.Fprintf(stderr, "bench: %s seed %d traced: %d round pairs, %d spans, trace file %s, ops_attempted %d, ops_failed %d\n",
		sp, seed, len(traced), st.spans, tracePath, rep.Attempted, rep.Failed)
	return rep, nil
}

// ledgerFile is BENCHMARK.json, as far as this program reads it.
type ledgerFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []ledgerMetric `json:"end_to_end"`
	PerLayer  []ledgerMetric `json:"per_layer"`
}

type ledgerMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// readLedger finds BENCHMARK.json from the repo root or from bench/.
func readLedger() (*ledgerFile, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var lf ledgerFile
		if err := json.Unmarshal(b, &lf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &lf, nil
	}
	return nil, firstErr
}

// runAA is the A/A tool: n runs per workload, then for every end-to-end
// metric the median, the quartiles (as Python's statistics.quantiles gives
// them) and the inter-quartile spread as a share of the median, beside the
// metric's bound. With one seed the DES figures must also repeat exactly.
func runAA(chosen []spec, seed int64, window time.Duration, n int, vary bool, stdout, stderr io.Writer) error {
	lf, err := readLedger()
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	bad := false
	for _, sp := range chosen {
		values := map[string][]float64{}
		var digests []string
		for i := 0; i < n; i++ {
			s := seed
			if vary {
				s += int64(i)
			}
			rep, err := runLedger(sp, s, window, minSetups, stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !rep.Correct {
				bad = true
				for _, p := range rep.problems {
					fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", sp.name, p)
				}
			}
			for k, m := range rep.Metrics {
				values[k] = append(values[k], m.Value)
			}
			digests = append(digests, rep.digest)
		}
		fmt.Fprintf(stderr, "bench: %s: A/A over %d runs\n", sp.name, n)
		fmt.Fprintf(stderr, "  %-22s %14s %14s %14s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		summary := map[string]any{"workload": sp.name, "runs": n}
		for _, lm := range lf.EndToEnd {
			vs := values[lm.Name]
			if len(vs) == 0 {
				return fmt.Errorf("%s: BENCHMARK.json names %s, which the run did not print", sp.name, lm.Name)
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / q2
			verdict := "ok"
			if lm.Name != "setup_s" && spread > lm.Bound {
				verdict, bad = "SPREAD EXCEEDS BOUND", true
			}
			sort.Float64s(vs)
			// Exact for a seed: the DES figures, which a TCP workload takes
			// from its twin, and a DES workload's simulated bytes.
			exact := lm.Name == "sim_virtual_s" || lm.Name == "sim_iters_to_target" || (!sp.tcp && lm.Name == "wire_bytes_per_iter")
			if !vary && exact && vs[0] != vs[len(vs)-1] {
				verdict, bad = "EXACT METRIC DIFFERS BETWEEN RUNS", true
			}
			fmt.Fprintf(stderr, "  %-22s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", lm.Name, q2, q1, q3, 100*spread, 100*lm.Bound, verdict)
			summary[lm.Name] = map[string]any{"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": lm.Bound, "verdict": verdict}
		}
		if !vary {
			for _, d := range digests[1:] {
				if d != digests[0] {
					fmt.Fprintf(stderr, "  params digest differs between runs: %.16s vs %.16s\n", d, digests[0])
					bad = true
				}
			}
		}
		b, err := json.Marshal(summary)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if bad {
		return errors.New("A/A: a spread exceeds its bound, an exact metric differs, or a check failed")
	}
	return nil
}
