package main

import (
	"strings"
	"testing"
	"time"

	"specsync/internal/scheme"
)

func TestParseSchemes(t *testing.T) {
	got, err := parseSchemes("asp,bsp,ssp:3,naive:1s,cherry:500ms:0.25,adaptive,adaptive-ssp:2")
	if err != nil {
		t.Fatal(err)
	}
	want := []scheme.Config{
		{Base: scheme.ASP},
		{Base: scheme.BSP},
		{Base: scheme.SSP, Staleness: 3},
		{Base: scheme.ASP, NaiveWait: time.Second},
		{Base: scheme.ASP, Spec: scheme.SpecFixed, AbortTime: 500 * time.Millisecond, AbortRate: 0.25},
		{Base: scheme.ASP, Spec: scheme.SpecAdaptive},
		{Base: scheme.SSP, Staleness: 2, Spec: scheme.SpecAdaptive},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d schemes", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scheme %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseSchemesErrors(t *testing.T) {
	bad := []string{
		"", "unknown", "ssp", "ssp:x", "naive", "naive:zzz",
		"cherry", "cherry:1s", "cherry:1s:x", "adaptive-ssp",
	}
	for _, s := range bad {
		if _, err := parseSchemes(s); err == nil {
			t.Errorf("parseSchemes(%q) accepted", s)
		}
	}
}

func TestParseSchemesSkipsBlanks(t *testing.T) {
	got, err := parseSchemes("asp, ,bsp,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("got %d schemes, want 2", len(got))
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, 0.2,0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != 0.2 {
		t.Errorf("got %v", got)
	}
	if out, err := parseFloats(""); err != nil || out != nil {
		t.Errorf("empty parse: %v, %v", out, err)
	}
	if _, err := parseFloats("abc"); err == nil {
		t.Error("expected parse error")
	}
}

// TestRunRejectsUnknownSize: a typo in -size must fail before any run starts,
// not fall through to the hours-long full-size workload.
func TestRunRejectsUnknownSize(t *testing.T) {
	err := run([]string{"-workload", "tiny", "-size", "smal"})
	if err == nil || !strings.Contains(err.Error(), `unknown size "smal"`) {
		t.Errorf("run with -size smal: err = %v, want an unknown-size error", err)
	}
}

func TestBuildWorkloadNames(t *testing.T) {
	for _, name := range []string{"mf", "cifar10", "imagenet", "tiny"} {
		wl, err := buildWorkload(name, 0, 4, 1)
		if name != "tiny" {
			wl, err = buildWorkload(name, 2, 4, 1) // SizeSmall
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if wl.Model == nil {
			t.Errorf("%s: nil model", name)
		}
	}
	if _, err := buildWorkload("nope", 1, 4, 1); err == nil {
		t.Error("expected unknown-workload error")
	}
}
