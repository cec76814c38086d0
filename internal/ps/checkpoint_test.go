package ps

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"specsync/internal/tensor"
)

func TestSnapshotRoundtrip(t *testing.T) {
	srv, err := New(Config{
		Range:     Range{Lo: 10, Hi: 14},
		Init:      tensor.Vec{1, 2, 3, 4},
		Optimizer: newTestSGD(t, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	snap.Version = 99 // simulate progress
	snap.Params[0] = -7

	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Range != snap.Range || loaded.Version != 99 || loaded.Params[0] != -7 {
		t.Errorf("roundtrip mismatch: %+v", loaded)
	}

	if err := srv.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if srv.Version() != 99 || srv.Params()[0] != -7 {
		t.Error("restore did not apply")
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	srv, err := New(Config{
		Range:     Range{Lo: 0, Hi: 2},
		Init:      tensor.Vec{1, 2},
		Optimizer: newTestSGD(t, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	snap.Params[0] = 42
	if srv.Params()[0] == 42 {
		t.Error("snapshot aliases live params")
	}
}

func TestRestoreValidation(t *testing.T) {
	srv, err := New(Config{
		Range:     Range{Lo: 0, Hi: 2},
		Init:      tensor.Vec{1, 2},
		Optimizer: newTestSGD(t, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore(Snapshot{Range: Range{Lo: 5, Hi: 7}, Params: tensor.Vec{0, 0}}); err == nil {
		t.Error("expected range-mismatch error")
	}
}

func TestReadSnapshotCorruption(t *testing.T) {
	snap := Snapshot{Range: Range{Lo: 0, Hi: 2}, Version: 5, Params: tensor.Vec{1, 2}}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad version":   append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":     good[:len(good)-3],
		"trailing junk": append(append([]byte{}, good...), 0xff),
		// Version 5 is the zigzag varint 0x0a at byte 7; 0x8a 0x00 decodes
		// to the same value but is not what WriteTo writes.
		"overlong varint": append(append(append([]byte{}, good[:7]...), 0x8a, 0x00), good[8:]...),
	}
	for name, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}

	if _, err := ReadSnapshot(strings.NewReader(string(good))); err != nil {
		t.Errorf("good snapshot rejected: %v", err)
	}
}

// FuzzReadSnapshot throws arbitrary bytes at the checkpoint reader, which
// reads files from a node's checkpoint directory: it must not panic, and a
// file it accepts must be exactly what WriteTo writes for what it decoded.
func FuzzReadSnapshot(f *testing.F) {
	srv, err := New(Config{
		Range:     Range{Lo: 4, Hi: 10},
		Init:      tensor.Vec{1, -2, 3.5, 0, math.Inf(1), 1e-300},
		Optimizer: newTestSGD(f, 6),
	})
	if err != nil {
		f.Fatal(err)
	}
	snap := srv.Snapshot()
	snap.Version = 1234
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The codec state file's lying header: magic, version, uvarint 1<<20.
	f.Add([]byte{0x43, 0x44, 0x4f, 0x43, 1, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := snap.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, out.Bytes())
		}
	})
}
