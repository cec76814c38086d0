package scheme

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	good := []Config{
		{Base: ASP},
		{Base: BSP},
		{Base: SSP, Staleness: 3},
		{Base: ASP, NaiveWait: time.Second},
		{Base: ASP, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 0.2},
		{Base: ASP, Spec: SpecAdaptive},
		{Base: SSP, Staleness: 2, Spec: SpecAdaptive},
		{Variant: VariantSyncSwitch, SwitchAt: 5},
		{Variant: VariantABS},
		{Variant: VariantABS, ABSMin: 2, ABSMax: 6},
		{Variant: VariantABS, Spec: SpecAdaptive},
		{Variant: VariantABS, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 0.2},
		{Variant: VariantPSP, PSPBeta: 0.7},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good case %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{},
		{Base: Base(99)},
		{Base: SSP, Staleness: -1},
		{Base: ASP, NaiveWait: -time.Second},
		{Base: BSP, Spec: SpecFixed, AbortTime: time.Second},
		{Base: BSP, Spec: SpecAdaptive},
		{Base: ASP, Spec: SpecFixed},                                         // no abort time
		{Base: ASP, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 1.5}, // rate > 1
		{Base: ASP, Spec: Spec(77)},
		{Variant: Variant(99)},
		{Variant: VariantSyncSwitch},                               // missing SwitchAt
		{Variant: VariantSyncSwitch, SwitchAt: 5, Base: BSP},       // base must stay unset
		{Variant: VariantSyncSwitch, SwitchAt: 5, Spec: SpecFixed}, // speculation × switch
		{Variant: VariantSyncSwitch, SwitchAt: 5, Decentralized: true},
		{Variant: VariantSyncSwitch, SwitchAt: 5, NaiveWait: time.Second},
		{Variant: VariantABS, ABSMin: 6, ABSMax: 2},             // inverted clamp
		{Variant: VariantABS, Spec: SpecFixed},                  // missing abort params
		{Variant: VariantPSP},                                   // missing beta
		{Variant: VariantPSP, PSPBeta: 1},                       // β=1 is plain BSP
		{Variant: VariantPSP, PSPBeta: 0.5, Spec: SpecAdaptive}, // PSP × speculation
		{Base: BSP, PSPBeta: 0.5},                               // variant params without Variant
		{Base: BSP, SwitchAt: 3},
		{Variant: VariantABS, SwitchAt: 3},                      // a Sync-Switch parameter on ABS
		{Variant: VariantSyncSwitch, SwitchAt: 3, PSPBeta: 0.5}, // a PSP parameter on Sync-Switch
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, c)
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Config{
		"Original":                    {Base: ASP},
		"BSP":                         {Base: BSP},
		"SSP(s=3)":                    {Base: SSP, Staleness: 3},
		"SpecSync-Adaptive(ASP)":      {Base: ASP, Spec: SpecAdaptive},
		"SpecSync-Cherrypick(ASP)":    {Base: ASP, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 0.2},
		"SpecSync-Adaptive(SSP(s=2))": {Base: SSP, Staleness: 2, Spec: SpecAdaptive},
	}
	for want, c := range cases {
		if got := c.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", c, got, want)
		}
	}
	if got := (Config{Base: ASP, NaiveWait: time.Second}).Name(); !strings.Contains(got, "NaiveWait") {
		t.Errorf("naive name = %q", got)
	}
}

func TestVariantRuntime(t *testing.T) {
	ss := Config{Variant: VariantSyncSwitch, SwitchAt: 5}
	if ss.EffectiveBase() != BSP || !ss.DynamicBase() {
		t.Errorf("Sync-Switch should start as dynamic BSP: %+v", ss.InitialRuntime())
	}
	if got := ss.Name(); !strings.Contains(got, "Sync-Switch") || !strings.Contains(got, "e5") {
		t.Errorf("Sync-Switch name = %q", got)
	}

	abs := Config{Variant: VariantABS}
	rt := abs.InitialRuntime()
	if rt.Base != SSP || rt.Staleness != DefaultABSMin || !abs.DynamicBase() {
		t.Errorf("ABS initial runtime = %+v", rt)
	}
	if min, max := abs.ABSBounds(); min != DefaultABSMin || max != DefaultABSMax {
		t.Errorf("ABS default bounds = %d..%d", min, max)
	}
	if got := abs.Name(); !strings.Contains(got, "ABS") {
		t.Errorf("ABS name = %q", got)
	}

	psp := Config{Variant: VariantPSP, PSPBeta: 0.7}
	rt = psp.InitialRuntime()
	if rt.Base != BSP || rt.Beta != 0.7 || psp.DynamicBase() {
		t.Errorf("PSP initial runtime = %+v dynamic=%v", rt, psp.DynamicBase())
	}
	if got := rt.String(); !strings.Contains(got, "PSP") {
		t.Errorf("PSP runtime string = %q", got)
	}
	if got := (Runtime{Base: SSP, Staleness: 4}).String(); got != "SSP(s=4)" {
		t.Errorf("SSP runtime string = %q", got)
	}
	if got := (Runtime{Base: BSP}).String(); got != "BSP" {
		t.Errorf("BSP runtime string = %q", got)
	}
}

func TestStringers(t *testing.T) {
	if ASP.String() != "ASP" || BSP.String() != "BSP" || SSP.String() != "SSP" {
		t.Error("base stringer broken")
	}
	if !strings.Contains(Base(42).String(), "42") {
		t.Error("unknown base should embed number")
	}
	if SpecOff.String() != "Off" || SpecFixed.String() != "Cherrypick" || SpecAdaptive.String() != "Adaptive" {
		t.Error("spec stringer broken")
	}
}

// TestJSON pins the spec form of a scheme: enums travel as their names, in
// any case, and every field a spec can set survives a round trip.
func TestJSON(t *testing.T) {
	var c Config
	if err := json.Unmarshal([]byte(`{"base":"ssp","staleness":3,"spec":"Adaptive"}`), &c); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Base: SSP, Staleness: 3, Spec: SpecAdaptive}); c != want {
		t.Errorf("decoded %+v, want %+v", c, want)
	}
	for _, c := range []Config{
		{Base: ASP, NaiveWait: time.Second},
		{Base: ASP, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 0.2, Decentralized: true},
		{Variant: VariantSyncSwitch, SwitchAt: 5},
		{Variant: VariantABS, Spec: SpecAdaptive},
		{Variant: VariantPSP, PSPBeta: 0.7},
	} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil || back != c {
			t.Errorf("%s round-tripped to %+v (%v)", data, back, err)
		}
	}
	for _, bad := range []string{`{"base":"nope"}`, `{"spec":"fast"}`, `{"variant":"SSP"}`} {
		if err := json.Unmarshal([]byte(bad), &c); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("%s: err %v, want an unknown-scheme error", bad, err)
		}
	}
}
