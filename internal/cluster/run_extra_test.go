package cluster

import (
	"testing"

	"specsync/internal/core"
	"specsync/internal/scheme"
)

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
