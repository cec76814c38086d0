package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsync/internal/cluster"
	"specsync/internal/node"
)

// haTopology is a spec with 2 servers, 3 workers, 1 standby scheduler and 2
// replicas per shard.
func haTopology(t *testing.T) cluster.Config {
	t.Helper()
	cfg, err := cluster.DecodeSpec([]byte(`{
		"workload": {"name": "tiny"}, "scheme": {"base": "ASP"},
		"workers": 3, "servers": 2, "seed": 1, "max_virtual": 60000000000,
		"replication": {"replicas": 2, "standby_schedulers": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	return cfg.WithDefaults()
}

// TestAddresses pins the port layout every process derives from the spec:
// servers, workers, the scheduler, standby schedulers, then replicas
// shard-major.
func TestAddresses(t *testing.T) {
	got := addresses(haTopology(t), "10.0.0.1", 7000)
	want := map[node.ID]string{
		"server/0":    "10.0.0.1:7000",
		"server/1":    "10.0.0.1:7001",
		"worker/0":    "10.0.0.1:7002",
		"worker/1":    "10.0.0.1:7003",
		"worker/2":    "10.0.0.1:7004",
		"scheduler":   "10.0.0.1:7005",
		"scheduler/1": "10.0.0.1:7006",
		"replica/0/1": "10.0.0.1:7007",
		"replica/0/2": "10.0.0.1:7008",
		"replica/1/1": "10.0.0.1:7009",
		"replica/1/2": "10.0.0.1:7010",
	}
	if len(got) != len(want) {
		t.Errorf("%d nodes, want %d: %v", len(got), len(want), got)
	}
	for id, addr := range want {
		if got[id] != addr {
			t.Errorf("%s at %q, want %q", id, got[id], addr)
		}
	}
}

// TestResolveID: -id accepts exactly the nodes of the spec's topology.
func TestResolveID(t *testing.T) {
	peers := addresses(haTopology(t), "127.0.0.1", 7000)
	for id := range peers {
		if got, err := resolveID(peers, string(id)); err != nil || got != id {
			t.Errorf("resolveID(%s) = %s, %v", id, got, err)
		}
	}
	for _, bad := range []string{"", "server", "server/x", "worker/-1", "probe", "replica/0", "replica/0/0", "chief"} {
		if _, err := resolveID(peers, bad); err == nil || !strings.Contains(err.Error(), "want server/<i>") {
			t.Errorf("malformed -id %q: err %v", bad, err)
		}
	}
	for _, out := range []string{"server/2", "worker/3", "scheduler/2", "replica/2/1", "replica/0/3"} {
		if _, err := resolveID(peers, out); err == nil || !strings.Contains(err.Error(), "not a node of the spec") {
			t.Errorf("out-of-range -id %q: err %v", out, err)
		}
	}
}

// TestAddressesCoverBuild: the address book holds exactly the nodes
// cluster.Build builds for the spec, so every node has a port and every port
// a node.
func TestAddressesCoverBuild(t *testing.T) {
	cfg := haTopology(t)
	nodes, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peers := addresses(cfg, "127.0.0.1", 7000)
	ids := nodes.IDs()
	if len(ids) != len(peers) {
		t.Errorf("Build has %d nodes %v, the address book %d", len(ids), ids, len(peers))
	}
	for _, id := range ids {
		if _, ok := peers[id]; !ok {
			t.Errorf("%s has no address", id)
		}
	}
}

// failingWriter writes a partial snapshot, then fails.
type failingWriter struct{}

func (failingWriter) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write([]byte("half a snapsh"))
	return int64(n), errors.New("disk full")
}

// TestWriteDurable: a checkpoint round-trips, a failed write leaves the
// previous checkpoint byte-identical, and no temp file outlives a write.
func TestWriteDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "server-0.ckpt")
	read := func() string {
		var got string
		what, err := readDurable(path, func(r io.Reader) (string, error) {
			data, err := io.ReadAll(r)
			got = string(data)
			return "it", err
		})
		if err != nil || what != "it" {
			t.Fatalf("readDurable = %q, %v", what, err)
		}
		return got
	}
	if what, err := readDurable(path, nil); what != "" || err != nil {
		t.Fatalf("missing checkpoint: %q, %v; want nothing restored and no error", what, err)
	}
	for _, content := range []string{"first", "second"} {
		if err := writeDurable(path, bytes.NewReader([]byte(content))); err != nil {
			t.Fatal(err)
		}
		if got := read(); got != content {
			t.Fatalf("read back %q, want %q", got, content)
		}
	}
	if err := writeDurable(path, failingWriter{}); err == nil {
		t.Fatal("a failing writer reported success")
	}
	if got := read(); got != "second" {
		t.Errorf("after a failed write the checkpoint reads %q, want the previous %q", got, "second")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only the checkpoint", names)
	}
}

// TestBootCountsRecovery: a process that restores a checkpoint, or a
// scheduler started at a generation above 0, replaces an earlier one and its
// /metrics counts the restart, the restore and — unless the predecessor left
// the clean-exit mark — the crash; a first start registers no fault-ledger
// family.
func TestBootCountsRecovery(t *testing.T) {
	cfg, err := cluster.DecodeSpec([]byte(`{
		"workload": {"name": "tiny"}, "scheme": {"base": "ASP"},
		"workers": 2, "servers": 1, "seed": 1, "max_virtual": 60000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.WithDefaults()
	dir := t.TempDir()
	type ledger struct{ crashes, schedCrashes, restarts, restores, schedRestores int64 }
	read := func(p *process) (ledger, bool) {
		var buf bytes.Buffer
		p.o.Registry().WritePrometheus(&buf)
		reg := p.o.Registry()
		return ledger{
			reg.SumCounters("specsync_crashes_total"),
			reg.SumCounters("specsync_scheduler_crashes_total"),
			reg.SumCounters("specsync_restarts_total"),
			reg.SumCounters("specsync_restores_total"),
			reg.SumCounters("specsync_scheduler_restores_total"),
		}, strings.Contains(buf.String(), "specsync_crashes_total")
	}

	// First starts: nothing to count. They leave the checkpoints the
	// replacements restore.
	var server *process
	for _, id := range []node.ID{node.Scheduler, node.ServerID(0)} {
		p, err := boot(cfg, id, 0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, exported := read(p); got != (ledger{}) || exported || p.restored != "" {
			t.Errorf("first start of %s: ledger %+v, exported %v, restored %q; want nothing", id, got, exported, p.restored)
		}
		snap, _ := p.snapshot()
		if err := writeDurable(p.ckptPath, snap); err != nil {
			t.Fatal(err)
		}
		server = p
	}

	for _, tc := range []struct {
		id   node.ID
		gen  int64
		dir  string
		want ledger
	}{
		{node.Scheduler, 1, dir, ledger{1, 1, 1, 1, 1}},
		{node.Scheduler, 1, "", ledger{1, 1, 1, 0, 0}},
		{node.ServerID(0), 0, dir, ledger{1, 0, 1, 1, 0}},
		{node.WorkerID(0), 0, dir, ledger{}}, // a raw-codec worker keeps no checkpoint
	} {
		p, err := boot(cfg, tc.id, tc.gen, tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := read(p); got != tc.want {
			t.Errorf("%s at generation %d, checkpoint dir %q: ledger %+v, want %+v", tc.id, tc.gen, tc.dir, got, tc.want)
		}
	}
	// A clean stop leaves the mark: its successor counts the restart and the
	// restore but no crash, and takes the mark, so the next one counts a
	// crash again.
	if err := server.stopped(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []ledger{{0, 0, 1, 1, 0}, {1, 0, 1, 1, 0}} {
		p, err := boot(cfg, node.ServerID(0), 0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := read(p); got != want {
			t.Errorf("server after a clean stop: ledger %+v, want %+v", got, want)
		}
	}
}
