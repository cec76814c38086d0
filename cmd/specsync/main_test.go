package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadNames checks that a spec with an unknown workload or scheme name,
// or a misspelled key, fails cleanly before any run starts.
func TestBadNames(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ doc, want string }{
		{`{"workload": {"name": "nope"}, "scheme": {"base": "ASP"}, "workers": 4, "seed": 1, "max_virtual": 1}`, "unknown workload"},
		{`{"workload": {"name": "tiny"}, "scheme": {"base": "nope"}, "workers": 4, "seed": 1, "max_virtual": 1}`, "unknown scheme"},
		{`{"workload": {"name": "tiny"}, "scheme": {"base": "ASP"}, "wrokers": 4, "seed": 1, "max_virtual": 1}`, "unknown field"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("spec%d.json", i))
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-spec", path}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.doc, err, tc.want)
		}
	}
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "-spec is required") {
		t.Errorf("no -spec: err %v", err)
	}
}

// TestCommittedSpecRuns drives the binary end to end on the quickstart spec.
func TestCommittedSpecRuns(t *testing.T) {
	if err := run([]string{"-spec", filepath.Join("..", "..", "examples", "specs", "tiny-adaptive.json"), "-curve", "0"}); err != nil {
		t.Fatal(err)
	}
}
