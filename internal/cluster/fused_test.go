package cluster

import (
	"path/filepath"
	"strconv"
	"testing"

	"specsync/internal/obs"
)

// TestFusedPushesApplyOncePerIteration: with the next pull riding every ASP
// push reply, a fault-free run still applies exactly one push per completed
// iteration on every shard, and both a fault-free and a replicated
// crash-and-failover spec double-run to the same parameters.
func TestFusedPushesApplyOncePerIteration(t *testing.T) {
	for _, name := range []string{"tiny-adaptive.json", "combined-kill.json"} {
		var digests [2]string
		for i := range digests {
			cfg, err := LoadSpec(filepath.Join("..", "..", "examples", "specs", name))
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(obs.Options{})
			cfg.Obs = o
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests[i] = res.ParamsDigest
			if cfg.Faults != nil {
				continue
			}
			if res.Obs.Iterations == 0 {
				t.Fatalf("%s: no iterations completed", name)
			}
			for shard := 0; shard < cfg.WithDefaults().Servers; shard++ {
				applied := o.Registry().Counter("specsync_server_pushes_total", "", "shard", strconv.Itoa(shard)).Value()
				if applied != res.Obs.Iterations {
					t.Errorf("%s: shard %d applied %d pushes for %d completed iterations", name, shard, applied, res.Obs.Iterations)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: double run digests %s and %s", name, digests[0], digests[1])
		}
	}
}
