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
		{Base: BSP, Quorum: 0.7},                // PSP
		{Base: SSP, Staleness: 3, Quorum: 0.75}, // pSSP
		{Base: SSP, Staleness: 3, Quorum: 0.75, Spec: SpecAdaptive},
		{Base: BSP, Policy: PolicySyncSwitch, SwitchAt: 5},
		{Base: BSP, Policy: PolicySyncSwitch, SwitchAt: 5, Spec: SpecFixed, AbortTime: time.Second}, // speculation once released
		{Base: SSP, Staleness: 1, Policy: PolicyABS},
		{Base: SSP, Staleness: 1, Policy: PolicyABS, Spec: SpecAdaptive},
		{Base: BSP, Policy: PolicyMeta},
		{Base: BSP, Policy: PolicyMeta, Spec: SpecAdaptive, NaiveWait: time.Second},
		{Base: BSP, Quorum: 0.5, Policy: PolicyMeta},
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
		{Base: BSP, Quorum: 0.5, Spec: SpecAdaptive},                         // PSP never arms a window
		{Base: ASP, Spec: SpecFixed},                                         // no abort time
		{Base: ASP, Spec: SpecFixed, AbortTime: time.Second, AbortRate: 1.5}, // rate > 1
		{Base: ASP, Spec: Spec(77)},
		{Base: BSP, Quorum: 1.5},
		{Base: BSP, Quorum: -0.5},
		{Base: ASP, Quorum: 0.5}, // nothing to release under ASP
		{Base: BSP, Policy: Policy(99)},
		{Base: BSP, Policy: PolicySyncSwitch}, // missing switch_at
		{Base: BSP, SwitchAt: 3},              // switch_at without sync-switch
		{Base: SSP, Policy: PolicyABS, SwitchAt: 3},
		{Base: ASP, Policy: PolicyMeta}, // a policy needs a bounded gate
		{Base: SSP, Staleness: 2, Policy: PolicyABS, Spec: SpecFixed, AbortTime: time.Second, Decentralized: true},
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

// TestVariantRuntime: every variant of the zoo is a gate — a bound and a
// quorum — that a policy may move.
func TestVariantRuntime(t *testing.T) {
	for _, tc := range []struct {
		c    Config
		gate Gate
		name string
	}{
		{Config{Base: ASP}, Gate{Bound: Unbounded, Quorum: 1}, "ASP"},
		{Config{Base: BSP}, Gate{Bound: 0, Quorum: 1}, "BSP"},
		{Config{Base: SSP, Staleness: 4}, Gate{Bound: 4, Quorum: 1}, "SSP(s=4)"},
		{Config{Base: BSP, Quorum: 0.7}, Gate{Bound: 0, Quorum: 0.7}, "PSP(β=0.70)"},
		{Config{Base: SSP, Staleness: 3, Quorum: 0.75}, Gate{Bound: 3, Quorum: 0.75}, "pSSP(s=3,β=0.75)"},
	} {
		if g := tc.c.Gate(); g != tc.gate || g.String() != tc.name {
			t.Errorf("%+v: gate %+v (%s), want %+v (%s)", tc.c, g, g, tc.gate, tc.name)
		}
	}
	if b := (Gate{Bound: 2, Quorum: 1}).Base(); b != SSP {
		t.Errorf("a bound of 2 is %s, want SSP", b)
	}
	if g := (Gate{Bound: 0, Quorum: 0.5}).Loosened(); g != (Gate{Bound: MetaBound, Quorum: 0.5}) {
		t.Errorf("loosened PSP = %+v", g)
	}
	for c, want := range map[Config]string{
		{Base: BSP, Policy: PolicySyncSwitch, SwitchAt: 5}:               "Sync-Switch(BSP→ASP@e5)",
		{Base: SSP, Staleness: 1, Policy: PolicyABS, Spec: SpecAdaptive}: "SpecSync-Adaptive(ABS(SSP(s=1), s=1..8))",
		{Base: BSP, Policy: PolicyMeta}:                                  "Meta(BSP↔SSP(s=3))",
		{Base: SSP, Staleness: 3, Quorum: 0.75}:                          "pSSP(s=3,β=0.75)",
	} {
		if got := c.Name(); got != want {
			t.Errorf("Name(%+v) = %q, want %q", c, got, want)
		}
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
		{Base: BSP, Policy: PolicySyncSwitch, SwitchAt: 5},
		{Base: SSP, Staleness: 1, Policy: PolicyABS, Spec: SpecAdaptive},
		{Base: SSP, Staleness: 3, Quorum: 0.75},
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
	for _, bad := range []string{`{"base":"nope"}`, `{"spec":"fast"}`, `{"policy":"SSP"}`} {
		if err := json.Unmarshal([]byte(bad), &c); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("%s: err %v, want an unknown-scheme error", bad, err)
		}
	}
}
