package perfect

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// roundTripApps is every built-in app the textual form must represent
// exactly: the five paper apps plus the synthetic presets.
func roundTripApps() []App {
	return append(Apps(), FineGrained(), CoarseGrained(), SyntheticSpec{}.App())
}

// TestRoundTripValueIdentical: parse(print(app)) reproduces the exact
// App value, including the Repeat:1-vs-unset distinction and float
// fields.
func TestRoundTripValueIdentical(t *testing.T) {
	for _, want := range roundTripApps() {
		doc := PrintWorkload(want)
		got, err := ParseWorkload(doc)
		if err != nil {
			t.Fatalf("%s: parse(print): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parse(print(app)) != app\ngot  %+v\nwant %+v", want.Name, got, want)
		}
	}
}

// TestRoundTripByteIdentical: print(parse(doc)) reproduces a canonical
// document byte for byte.
func TestRoundTripByteIdentical(t *testing.T) {
	for _, a := range roundTripApps() {
		doc := PrintWorkload(a)
		parsed, err := ParseWorkload(doc)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if again := PrintWorkload(parsed); string(again) != string(doc) {
			t.Errorf("%s: print(parse(doc)) differs from doc\n--- doc\n%s--- again\n%s", a.Name, doc, again)
		}
	}
}

// TestWorkloadGoldens pins the committed testdata/workloads files to
// the Go constructors: each golden parses to the exact constructor
// value, and its canonical body is byte-identical to PrintWorkload.
func TestWorkloadGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "workloads", "*"+WorkloadExt))
	if err != nil || len(files) == 0 {
		t.Fatalf("no workload goldens found: %v", err)
	}
	byName := map[string]App{}
	for _, a := range Apps() {
		byName[strings.ToLower(a.Name)] = a
	}
	seen := map[string]bool{}
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), WorkloadExt)
		want, ok := byName[base]
		if !ok {
			t.Errorf("%s: golden has no matching constructor", f)
			continue
		}
		seen[base] = true
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseWorkload(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed app differs from %s() constructor\ngot  %+v\nwant %+v",
				f, want.Name, got, want)
		}
		// The golden's non-comment body must be byte-identical to the
		// canonical print of the constructor.
		var body []string
		for _, l := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), "#") {
				continue
			}
			body = append(body, l)
		}
		if got, want := strings.Join(body, "\n"), string(PrintWorkload(want)); got != want {
			t.Errorf("%s: golden body is not the canonical form\n--- golden\n%s--- canonical\n%s",
				f, got, want)
		}
	}
	for _, a := range Apps() {
		if !seen[strings.ToLower(a.Name)] {
			t.Errorf("no committed golden for %s (want testdata/workloads/%s%s)",
				a.Name, strings.ToLower(a.Name), WorkloadExt)
		}
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown key", "workload: x\nbogus: 1\n", `unknown key "bogus"`},
		{"unknown phase key", "workload: x\nphase: serial s\n  bogus: 1\n", `unknown phase key "bogus"`},
		{"unknown kind", "workload: x\nphase: doall s\n", "unknown phase kind"},
		{"duplicate key", "workload: x\nsteps: 1\nsteps: 2\n", `duplicate key "steps"`},
		{"duplicate phase key", "workload: x\nphase: serial s\n  work: 1\n  work: 2\n", `duplicate phase key "work"`},
		{"stray indent", "workload: x\n  work: 1\n", "unexpected indentation"},
		{"odd indent", "workload: x\nphase: serial s\n   work: 1\n", "exactly two spaces"},
		{"no colon", "workload: x\nsteps\n", "not key: value"},
		{"bad int", "workload: x\nsteps: many\n", "steps"},
	}
	for _, c := range cases {
		_, err := ParseWorkload([]byte(c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateEdgeCases: each constraint violation is rejected with a
// message naming the constraint.
func TestValidateEdgeCases(t *testing.T) {
	valid := func() App { return FLO52() }
	cases := []struct {
		name   string
		mutate func(*App)
		want   string
	}{
		{"zero steps", func(a *App) { a.Steps = 0 }, "steps >= 1"},
		{"zero data", func(a *App) { a.DataWords = 0 }, "data_words >= 1"},
		{"hit ratio above 1", func(a *App) { a.CacheHitRatio = 1.5 }, "cache_hit_ratio <= 1"},
		{"hit ratio negative", func(a *App) { a.CacheHitRatio = -0.1 }, "cache_hit_ratio <= 1"},
		{"no phases", func(a *App) { a.Phases = nil }, "no phases"},
		{"negative repeat", func(a *App) { a.Phases[1].Repeat = -1 }, "repeat >= 0"},
		{"zero inner", func(a *App) { a.Phases[1].Inner = 0 }, "inner >= 1"},
		{"negative outer", func(a *App) { a.Phases[1].Outer = -1 }, "outer >= 0"},
		{"negative work", func(a *App) { a.Phases[1].Work = -5 }, "work >= 0"},
		{"jitter above 1", func(a *App) { a.Phases[1].WorkJitter = 1.2 }, "work_jitter <= 1"},
		{"jitter negative", func(a *App) { a.Phases[1].WorkJitter = -0.2 }, "work_jitter <= 1"},
		{"negative gm words", func(a *App) { a.Phases[1].GMWords = -1 }, "gm_words >= 0"},
		{"negative gm stride", func(a *App) { a.Phases[1].GMStride = -1 }, "gm_stride >= 0"},
		{"negative clus words", func(a *App) { a.Phases[1].ClusWords = -1 }, "clus_words >= 0"},
		{"negative serial cycles", func(a *App) { a.Phases[1].SerialCycles = -1 }, "serial_cycles >= 0"},
		{"data below footprint", func(a *App) { a.DataWords = 100 }, "below the phase footprint"},
		{"bad kind", func(a *App) { a.Phases[1].Kind = PhaseKind(99) }, "unknown phase kind"},
	}
	for _, c := range cases {
		a := valid()
		c.mutate(&a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
	// And the untouched constructors all pass.
	for _, a := range Registry() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestSyntheticSpecDefaults: a zero spec fills every knob with its
// documented default, and explicit values survive.
func TestSyntheticSpecDefaults(t *testing.T) {
	a := SyntheticSpec{}.App()
	if a.Name != "synthetic" {
		t.Errorf("default name = %q, want synthetic", a.Name)
	}
	if a.Steps != 4 {
		t.Errorf("default steps = %d, want 4", a.Steps)
	}
	if len(a.Phases) != 1 {
		t.Fatalf("zero spec phases = %d, want 1 (no serial phase without SerialWork)", len(a.Phases))
	}
	p := a.Phases[0]
	if p.Kind != PhaseSX || p.Repeat != 1 || p.Outer != 4 || p.Inner != 16 || p.Work != 2000 {
		t.Errorf("default loop phase = %+v", p)
	}
	if want := int64(4*16*8) + 4096; a.DataWords != want {
		t.Errorf("default data words = %d, want %d", a.DataWords, want)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("zero spec app invalid: %v", err)
	}

	b := SyntheticSpec{Name: "n", Steps: 9, LoopsPerStep: 3, Kind: PhaseX,
		Outer: 2, Inner: 5, Work: 77, Jitter: 0.3, GMWords: 40, ClusWords: 20,
		SerialWork: 1000, DataWords: 50_000}.App()
	if b.Name != "n" || b.Steps != 9 || b.DataWords != 50_000 {
		t.Errorf("explicit top-level knobs lost: %+v", b)
	}
	if len(b.Phases) != 2 || b.Phases[0].Kind != PhaseSerial || b.Phases[0].Work != 1000 {
		t.Fatalf("SerialWork did not produce a serial phase: %+v", b.Phases)
	}
	lp := b.Phases[1]
	if lp.Kind != PhaseX || lp.Repeat != 3 || lp.Outer != 2 || lp.Inner != 5 ||
		lp.Work != 77 || lp.WorkJitter != 0.3 || lp.GMWords != 40 || lp.ClusWords != 20 {
		t.Errorf("explicit loop knobs lost: %+v", lp)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("explicit spec app invalid: %v", err)
	}
}

func TestResolverForms(t *testing.T) {
	r := Resolver{}
	if a, err := r.Resolve("FLO52"); err != nil || a.Name != "FLO52" {
		t.Errorf("name form: %v %v", a.Name, err)
	}
	if a, err := r.Resolve("finegrain"); err != nil || a.Name != "finegrain" {
		t.Errorf("preset form: %v %v", a.Name, err)
	}
	if a, err := r.Resolve(string(PrintWorkload(MDG()))); err != nil || a.Name != "MDG" {
		t.Errorf("inline form: %v %v", a.Name, err)
	}
	// A file path is refused even when the file exists: sources travel
	// (scenario documents, served jobs) and carry the document itself.
	for _, path := range []string{"x.workload", filepath.Join("..", "..", "testdata", "workloads", "ocean.workload")} {
		if _, err := r.Resolve(path); err == nil || !strings.Contains(err.Error(), "not allowed") {
			t.Errorf("file form %s: %v", path, err)
		}
	}
	_, err := r.Resolve("NOSUCH")
	if err == nil || !strings.Contains(err.Error(), `unknown app "NOSUCH" (known: FLO52, ARC2D, MDG, OCEAN, ADM, finegrain, coarsegrain)`) {
		t.Errorf("unknown name error = %v", err)
	}
}
