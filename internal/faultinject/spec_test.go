package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseSpecValid(t *testing.T) {
	rules, err := ParseSpec("engine.build:err*1, icostd.query:lat=50ms%0.1, ooo.sim:cancel@3*2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	if rules[0].Point != EngineBuild || rules[0].Err == nil || rules[0].Count != 1 {
		t.Fatalf("rule 0: %+v", rules[0])
	}
	if rules[1].Latency != 50*time.Millisecond || rules[1].Prob != 0.1 {
		t.Fatalf("rule 1: %+v", rules[1])
	}
	if !rules[2].Cancel || rules[2].After != 3 || rules[2].Count != 2 {
		t.Fatalf("rule 2: %+v", rules[2])
	}
}

// TestParseSpecDegenerate pins the rejection of spec values that used
// to arm rules which then never fire or always fire: out-of-range or
// NaN probabilities, non-positive counts, negative after-skips, and
// silently-shadowed duplicate modifiers. Every failure must surface as
// a *SpecError naming the offending rule.
func TestParseSpecDegenerate(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"empty spec", "  , "},
		{"missing colon", "engine.build"},
		{"unknown point", "nope.nope:err"},
		{"unknown action", "engine.build:explode"},
		{"prob zero", "engine.build:err%0"},
		{"prob negative", "engine.build:err%-0.5"},
		{"prob above one", "engine.build:err%1.5"},
		{"prob NaN", "engine.build:err%NaN"},
		{"prob garbage", "engine.build:err%often"},
		{"count zero", "engine.build:err*0"},
		{"count negative", "engine.build:err*-2"},
		{"count fractional", "engine.build:err*1.5"},
		{"after negative", "engine.build:err@-1"},
		{"after garbage", "engine.build:err@soon"},
		{"duplicate count", "engine.build:err*2*3"},
		{"duplicate prob", "engine.build:err%0.1%0.2"},
		{"duplicate after", "engine.build:err@1@2"},
		{"zero latency", "engine.build:lat=0s"},
		{"negative latency", "engine.build:lat=-1ms"},
		{"bad latency", "engine.build:lat=fast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules, err := ParseSpec(tc.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted: %+v", tc.spec, rules)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if tc.name != "empty spec" && se.Rule == "" {
				t.Fatalf("SpecError does not name the rule: %v", err)
			}
		})
	}
}

// TestParseSpecBoundaryProb: the closed upper endpoint of (0,1] and a
// tiny positive probability both parse.
func TestParseSpecBoundaryProb(t *testing.T) {
	for _, spec := range []string{"engine.build:err%1", "engine.build:err%1e-9"} {
		if _, err := ParseSpec(spec); err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
	}
}

// TestParseSpecModifierOrder: modifiers may appear in any order after
// the action.
func TestParseSpecModifierOrder(t *testing.T) {
	for _, spec := range []string{
		"workload.gen:err*3@2%0.25",
		"workload.gen:err%0.25@2*3",
		"workload.gen:err@2%0.25*3",
	} {
		rules, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		r := rules[0]
		if r.Count != 3 || r.After != 2 || r.Prob != 0.25 || r.Err == nil {
			t.Fatalf("%q parsed to %+v", spec, r)
		}
	}
}

// TestParseSpecRejects: every rejection says what was wrong, so an
// operator can fix the flag from the message alone.
func TestParseSpecRejects(t *testing.T) {
	cases := map[string]string{
		"":                        "empty",
		"   , ,  ":                "empty",
		"engine.build":            "missing ':'",
		"nosuch.point:err":        "unknown point",
		"engine.build:zap":        "unknown action",
		"engine.build:err%0":      "probability",
		"engine.build:err%1.5":    "probability",
		"engine.build:err%zap":    "probability",
		"engine.build:err@-1":     "@after",
		"engine.build:err*0":      "count",
		"engine.build:lat=zap":    "latency",
		"engine.build:lat=-5ms":   "latency",
		"icostd.query:lat=":       "latency",
		"engine.build:err,bad":    "missing ':'",
		"engine.build:cancel@zap": "@after",
	}
	for spec, wantSub := range cases {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("%q accepted", spec)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%q: error %q does not mention %q", spec, err, wantSub)
		}
	}
}

// TestParseSpecUnknownPointListsKnown: the error for a typo'd point
// names the valid ones, so the operator is one read away from the fix.
func TestParseSpecUnknownPointListsKnown(t *testing.T) {
	_, err := ParseSpec("engine.biuld:err")
	if err == nil {
		t.Fatal("typo accepted")
	}
	for _, pt := range Points() {
		if !strings.Contains(err.Error(), string(pt)) {
			t.Fatalf("error %q does not list point %s", err, pt)
		}
	}
}
