package cluster

import (
	"testing"
	"time"

	"specsync/internal/core"
	"specsync/internal/scheme"
)

func TestRunPastConvergeExtendsCurves(t *testing.T) {
	base, err := Run(tinyConfig(t, scheme.Config{Base: scheme.ASP}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Skip("tiny workload did not converge; nothing to compare")
	}
	extended, err := Run(tinyConfig(t, scheme.Config{Base: scheme.ASP}, func(c *Config) {
		c.RunPastConverge = 30 * time.Second
	}))
	if err != nil {
		t.Fatal(err)
	}
	if extended.Elapsed <= base.Elapsed {
		t.Errorf("RunPastConverge did not extend: %v vs %v", extended.Elapsed, base.Elapsed)
	}
	if extended.ConvergeTime != base.ConvergeTime {
		t.Errorf("convergence time changed: %v vs %v", extended.ConvergeTime, base.ConvergeTime)
	}
}

func TestRecordAccuracySeries(t *testing.T) {
	wl, err := NewCIFAR(SizeSmall, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workload:       wl,
		Scheme:         scheme.Config{Base: scheme.ASP},
		Workers:        4,
		Seed:           5,
		MaxVirtual:     20 * wl.IterTime,
		RecordAccuracy: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy.Len() == 0 {
		t.Fatal("no accuracy samples recorded")
	}
	for _, p := range res.Accuracy.Snapshot() {
		if p.V < 0 || p.V > 1 {
			t.Fatalf("accuracy %v out of range", p.V)
		}
	}
}

func TestOnTuneHookFires(t *testing.T) {
	tunes := 0
	_, err := Run(tinyConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, func(c *Config) {
		c.OnTune = func(epoch int, tn core.Tuning) { tunes++ }
	}))
	if err != nil {
		t.Fatal(err)
	}
	if tunes == 0 {
		t.Error("OnTune never fired")
	}
}

func TestExpiryOnlyModeRuns(t *testing.T) {
	res, err := Run(tinyConfig(t, scheme.Config{Base: scheme.ASP, Spec: scheme.SpecAdaptive}, func(c *Config) {
		c.CheckAtExpiryOnly = true
		c.RateMargin = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("paper-literal mode did not converge: final %v", res.FinalLoss)
	}
}
