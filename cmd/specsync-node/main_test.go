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
