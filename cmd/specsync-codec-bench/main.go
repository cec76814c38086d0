// Command specsync-codec-bench measures the codec layer and emits a JSON
// report (BENCH_codec.json in CI): per-codec encode/decode ns/op, allocs/op
// and payload bytes at two block sizes (-block, and the 8192-value shard of
// the tcp_topk benchmark workload), plus bytes-per-push from short simulated
// runs so the wire-level effect of each codec is tracked alongside the
// microbench.
//
//	specsync-codec-bench -out BENCH_codec.json
//
// It exits nonzero if the lossy codecs fail to beat raw on bytes-per-push (a
// compression smoke test for CI), if top-k allocates in the steady state, or
// if top-k's encode costs more than maxTopKOverRaw raw encodes measured in
// the same process — a ratio, so it holds on any machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"specsync/internal/cluster"
	"specsync/internal/codec"
	"specsync/internal/msg"
	"specsync/internal/scheme"
	"specsync/internal/wire"
)

type codecBench struct {
	Name           string  `json:"name"`
	BlockLen       int     `json:"block_len"`
	EncodeNsOp     float64 `json:"encode_ns_op"`
	DecodeNsOp     float64 `json:"decode_ns_op"`
	EncodeAllocsOp int64   `json:"encode_allocs_op"`
	DecodeAllocsOp int64   `json:"decode_allocs_op"`
	PayloadBytes   int     `json:"payload_bytes"`
}

// maxTopKOverRaw gates top-k's encode time as a multiple of raw's. Raw is
// wire.Writer.Float64s, which codes a block four values per step; against it
// selection runs at 13-17x and the full sort it replaced would run at about
// 250x (113x against the per-element loop, when selection ran at 5-8x).
const maxTopKOverRaw = 40

// tcpTopKShard is the block the tcp_topk benchmark workload encodes.
const tcpTopKShard = 8192

// benchBlocks is how many distinct blocks a microbenchmark cycles through:
// re-encoding one block lets the branch predictor learn the selection's
// comparisons and halves top-k's apparent cost.
const benchBlocks = 16

type pushBench struct {
	Codec        string  `json:"codec"`
	Pushes       int64   `json:"pushes"`
	PushBytes    int64   `json:"push_bytes"`
	BytesPerPush float64 `json:"bytes_per_push"`
	Ratio        float64 `json:"ratio"`
}

type report struct {
	BlockLen  int          `json:"block_len"`
	Codecs    []codecBench `json:"codecs"`
	DESPushes []pushBench  `json:"des_pushes"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "specsync-codec-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("specsync-codec-bench", flag.ContinueOnError)
	var (
		out      = fs.String("out", "BENCH_codec.json", "output JSON path (\"-\" for stdout)")
		blockLen = fs.Int("block", 4096, "values per microbenchmark block (8192, the tcp_topk shard, is always measured too)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep := report{BlockLen: *blockLen}
	sizes := []int{*blockLen}
	if *blockLen != tcpTopKShard {
		sizes = append(sizes, tcpTopKShard)
	}
	for _, n := range sizes {
		rows, err := benchCodecs(n)
		if err != nil {
			return err
		}
		rep.Codecs = append(rep.Codecs, rows...)
	}

	// Short simulated runs for bytes-per-push on the wire.
	for _, cc := range []codec.Config{{Name: "raw"}, {Name: "topk"}, {Name: "q8"}} {
		wl, err := cluster.NewMF(cluster.SizeSmall, 4, 3)
		if err != nil {
			return err
		}
		res, err := cluster.Run(cluster.Config{
			Workload:   wl,
			Scheme:     scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
			Workers:    4,
			Seed:       3,
			Codec:      cc,
			MaxVirtual: 2 * time.Minute,
		})
		if err != nil {
			return err
		}
		kind, label, id := msg.KindPushReq, "raw", codec.IDRaw
		switch cc.Name {
		case "topk":
			kind, label, id = msg.KindPushReqV2, "topk", codec.IDTopK
		case "q8":
			kind, label, id = msg.KindPushReqV2, "q8", codec.IDQ8
		}
		bytes, pushes := res.Codec.KindBytes(kind, label)
		pb := pushBench{Codec: cc.Name, Pushes: pushes, PushBytes: bytes, Ratio: res.Codec.Ratio(id)}
		if pushes > 0 {
			pb.BytesPerPush = float64(bytes) / float64(pushes)
		}
		rep.DESPushes = append(rep.DESPushes, pb)
	}

	// Compression smoke: lossy codecs must actually shrink pushes.
	var rawPerPush float64
	for _, pb := range rep.DESPushes {
		if pb.Codec == "raw" {
			rawPerPush = pb.BytesPerPush
		}
	}
	for _, pb := range rep.DESPushes {
		if pb.Codec == "raw" {
			continue
		}
		if pb.Pushes == 0 || pb.BytesPerPush >= rawPerPush {
			return fmt.Errorf("codec %s: bytes/push %.0f not below raw %.0f", pb.Codec, pb.BytesPerPush, rawPerPush)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d codecs, %d DES arms)\n", *out, len(rep.Codecs), len(rep.DESPushes))
	return nil
}

// benchCodecs measures every codec on blocks of n values and applies the
// top-k gates.
func benchCodecs(n int) ([]codecBench, error) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]float64, benchBlocks)
	for i := range blocks {
		blocks[i] = make([]float64, n)
		for j := range blocks[i] {
			blocks[i][j] = rng.NormFloat64() * 0.1
		}
	}
	var rows []codecBench
	encodeNs := make(map[codec.ID]float64)
	for _, c := range []codec.Codec{codec.Raw{}, codec.TopK{Frac: codec.DefaultTopKFrac}, codec.Q8{Block: codec.DefaultQ8Block}, codec.Delta{}} {
		var encRNG *rand.Rand
		if c.ID() == codec.IDQ8 {
			encRNG = rand.New(rand.NewSource(2))
		}
		payloads := make([][]byte, len(blocks))
		for i, vals := range blocks {
			payloads[i] = codec.EncodePayload(c, vals, nil, nil, encRNG)
		}
		encRes := testing.Benchmark(func(b *testing.B) {
			recon := make([]float64, n)
			w := wire.NewWriter(n * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				c.Encode(w, blocks[i%len(blocks)], nil, recon, encRNG)
			}
		})
		decRes := testing.Benchmark(func(b *testing.B) {
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := codec.DecodePayload(c.ID(), payloads[i%len(payloads)], dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := codecBench{
			Name:           c.Name(),
			BlockLen:       n,
			EncodeNsOp:     float64(encRes.NsPerOp()),
			DecodeNsOp:     float64(decRes.NsPerOp()),
			EncodeAllocsOp: encRes.AllocsPerOp(),
			DecodeAllocsOp: decRes.AllocsPerOp(),
			PayloadBytes:   len(payloads[0]),
		}
		rows = append(rows, row)
		encodeNs[c.ID()] = row.EncodeNsOp
		if c.ID() == codec.IDTopK && (row.EncodeAllocsOp > 0 || row.DecodeAllocsOp > 0) {
			return nil, fmt.Errorf("topk at %d values: %d encode and %d decode allocs/op in the steady state, want 0", n, row.EncodeAllocsOp, row.DecodeAllocsOp)
		}
	}
	if ratio := encodeNs[codec.IDTopK] / encodeNs[codec.IDRaw]; ratio > maxTopKOverRaw {
		return nil, fmt.Errorf("topk at %d values: encode costs %.1f raw encodes (%.0f / %.0f ns), limit %d", n, ratio, encodeNs[codec.IDTopK], encodeNs[codec.IDRaw], maxTopKOverRaw)
	}
	return rows, nil
}
