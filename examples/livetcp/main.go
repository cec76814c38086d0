// Live TCP example: run a real SpecSync cluster — parameter-server shards,
// workers and the centralized scheduler — as separate TCP endpoints on
// loopback, training with real gradient computation and the full
// notify/re-sync protocol on the wire. The nodes are the ones
// cmd/specsync-node hosts one per process, built from the same spec; here
// cluster.RunLoopback hosts them all in one process.
//
//	go run ./examples/livetcp
package main

import (
	"fmt"
	"os"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livetcp:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, err := cluster.LoadSpec("examples/specs/livetcp.json")
	if err != nil {
		return err
	}
	fmt.Printf("live TCP cluster: %d servers, %d workers, scheme %s, workload %s\n",
		cfg.Servers, cfg.Workers, cfg.Scheme.Name(), cfg.Workload.Name)
	res, err := cluster.RunLoopback(cfg)
	if err != nil {
		return err
	}
	iters := res.IterSeries.Snapshot()
	for i, p := range res.Loss.Snapshot() {
		fmt.Printf("  t=%-6v iterations=%-5.0f loss=%.4f\n", p.T.Round(time.Millisecond), iters[i].V, p.V)
	}
	data, control := res.Transfer.Split()
	fmt.Printf("wire traffic: %s parameter data, %s control (%.3f%%)\n",
		metrics.HumanBytes(data), metrics.HumanBytes(control), 100*float64(control)/float64(data+control))
	fmt.Printf("done: %d iterations in %v (converged %v), %d aborts, %d resyncs, final loss %.4f\n",
		res.TotalIters, res.Elapsed.Round(time.Millisecond), res.Converged, res.Aborts, res.ReSyncs, res.FinalLoss)
	return nil
}
