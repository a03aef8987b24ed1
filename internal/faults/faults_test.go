package faults

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Event
	}{
		{"ce:2@1e6", Event{Kind: CEFail, Target: 2, At: 1_000_000}},
		{"ce:5x3@500", Event{Kind: CESlow, Target: 5, At: 500, Factor: 3}},
		{"module:17@5e5", Event{Kind: ModuleOffline, Target: 17, At: 500_000}},
		{"module:17x2.5@100", Event{Kind: ModuleSlow, Target: 17, At: 100, Factor: 2.5}},
		{"port:4@0", Event{Kind: PortSlow, Target: 4, At: 0, Factor: DefaultPortFactor}},
		{"port:4x8@10", Event{Kind: PortSlow, Target: 4, At: 10, Factor: 8}},
		{"lock:0@1e6+5e4", Event{Kind: LockStall, Target: 0, At: 1_000_000, Span: 50_000}},
		{"lock:-1@200", Event{Kind: LockStall, Target: -1, At: 200, Span: DefaultLockSpan}},
		{"storm:-1@1e5", Event{Kind: PageStorm, Target: -1, At: 100_000}},
	}
	for _, c := range cases {
		plan, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if len(plan) != 1 {
			t.Errorf("Parse(%q): %d events, want 1", c.spec, len(plan))
			continue
		}
		if plan[0] != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.spec, plan[0], c.want)
		}
	}
}

func TestParseList(t *testing.T) {
	plan, err := Parse("ce:2@1e6, module:17@5e5,lock:0@2e6+1e4")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("got %d events, want 3", len(plan))
	}
	if plan[1].Kind != ModuleOffline || plan[1].Target != 17 {
		t.Errorf("event 1 = %+v", plan[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"ce@1e6",          // no target
		"ce:2",            // no time
		"ce:2@-5",         // negative time
		"ce:2x0.5@0",      // factor < 1
		"warp:1@0",        // unknown kind
		"lock:0@0+-3",     // bad span
		"module:banana@0", // bad target
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		}
	}
}

// Values that parse as floats but do not describe a fault must be
// rejected, not converted: each of these used to be accepted and then
// panicked a run ("schedule at -9223372036854775808", "negative busy")
// or, for the NaN factor, silently took the module offline.
func TestParseRejectsNonFiniteAndOverflow(t *testing.T) {
	for _, spec := range []string{
		"ce:1@Inf",           // time overflows sim.Time
		"ce:1@1e30",          // time overflows sim.Time
		"ce:1@NaN",           // NaN time
		"lock:0@9e18+9e18",   // time plus span overflows
		"lock:0@5+Inf",       // infinite span
		"module:3xNaN@100",   // NaN factor
		"port:2xInf@100",     // infinite factor
		"module:3x1e300@100", // factor beyond MaxFactor
		"ce:1x101@0",         // factor beyond MaxFactor
		"ce:1@5+100",         // span on a kind that takes none
		"storm:0@5+100",      // span on a kind that takes none
		"lock:0x2@5",         // factor on a kind that takes none
		"storm:-1x3@5",       // factor on a kind that takes none
	} {
		if plan, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %v, want an error", spec, plan)
		}
	}
	// The bounds themselves stay accepted.
	for _, spec := range []string{"ce:1x100@0", "lock:0@1e18+1e18", "ce:1@9.2e18"} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

// Plans built in code skip the parser, so Validate rejects the same
// non-finite factors and negative times.
func TestValidateRejectsNonFinite(t *testing.T) {
	for i, p := range []Plan{
		{{Kind: ModuleSlow, Target: 3, Factor: math.NaN()}},
		{{Kind: PortSlow, Target: 2, Factor: math.Inf(1)}},
		{{Kind: CESlow, Target: 1, Factor: MaxFactor + 1}},
		{{Kind: CEFail, Target: 1, At: -1}},
	} {
		if err := p.Validate(arch.Cedar8); err == nil {
			t.Errorf("plan %d (%+v) accepted", i, p[0])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	spec := "ce:2@1000000,ce:5x3@500,module:17@500000,port:4x8@10,lock:-1@200+50000,storm:1@7"
	plan, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", plan.String(), err)
	}
	for i := range plan {
		if plan[i] != plan2[i] {
			t.Errorf("event %d: %+v != %+v", i, plan[i], plan2[i])
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := arch.Cedar32

	good := Plan{
		{Kind: CEFail, Target: 31, At: 0},
		{Kind: ModuleSlow, Target: 31, At: 0, Factor: 2},
		{Kind: LockStall, Target: -1, At: 0, Span: 100},
		{Kind: PageStorm, Target: 3, At: 0},
	}
	if err := good.Validate(cfg); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}

	bad := []Plan{
		{{Kind: CEFail, Target: 32, At: 0}},
		{{Kind: ModuleOffline, Target: -1, At: 0}},
		{{Kind: PortSlow, Target: 99, At: 0, Factor: 2}},
		{{Kind: LockStall, Target: 4, At: 0, Span: 100}},
		{{Kind: PageStorm, Target: -2, At: 0}},
		{{Kind: CESlow, Target: 0, At: 0, Factor: 0.5}},
		{{Kind: LockStall, Target: 0, At: 0, Span: 0}},
	}
	for i, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("bad plan %d (%s) accepted", i, p)
		}
	}

	// Offlining every module must be rejected; all but one is fine.
	var all, most Plan
	for m := 0; m < cfg.GMModules; m++ {
		all = append(all, Event{Kind: ModuleOffline, Target: m})
		if m > 0 {
			most = append(most, Event{Kind: ModuleOffline, Target: m})
		}
	}
	if err := all.Validate(cfg); err == nil ||
		!strings.Contains(err.Error(), "all") {
		t.Errorf("offline-all accepted (err=%v)", err)
	}
	if err := most.Validate(cfg); err != nil {
		t.Errorf("offline all-but-one rejected: %v", err)
	}
}

func TestEventStringStable(t *testing.T) {
	e := Event{Kind: LockStall, Target: 2, At: sim.Time(1e6), Span: 5000}
	if got := e.String(); got != "lock:2@1000000+5000" {
		t.Errorf("String() = %q", got)
	}
}
