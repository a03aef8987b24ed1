package replay

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestScenarioRoundTrip(t *testing.T) {
	lines := []string{
		"app=FLO52 config=8proc steps=1 seed=3327910339796038169 plan=ce:4x1.25@47085,ce:1@76414,module:3x2@23648",
		"app=FLO52 config=16proc steps=2 seed=-7 plan=ce:1@76414 expect=deadlock",
		"app=TRFD config=8proc steps=0 seed=0 plan=lock:-1@50000+50000,storm:0@100000 expect=error",
	}
	for _, line := range lines {
		sc, err := Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		if got := sc.String(); got != line {
			t.Errorf("round trip changed the line:\n in: %s\nout: %s", line, got)
		}
		again, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", sc, err)
		}
		if again.String() != sc.String() {
			t.Errorf("second round trip unstable: %s vs %s", again, sc)
		}
	}
}

func TestParseKeyOrderAndDefaults(t *testing.T) {
	sc, err := Parse("plan=ce:1@500 config=8proc app=FLO52")
	if err != nil {
		t.Fatal(err)
	}
	if sc.App != "FLO52" || sc.Config != "8proc" || sc.Steps != 0 || sc.Seed != 0 {
		t.Fatalf("parsed fields wrong: %+v", sc)
	}
	if sc.Expectation() != ExpectOK {
		t.Fatalf("default expectation = %q, want %q", sc.Expectation(), ExpectOK)
	}
	// expect=ok is valid input but canonically omitted.
	sc2, err := Parse("app=FLO52 config=8proc plan=ce:1@500 expect=ok")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sc2.String(), "expect=") {
		t.Fatalf("expect=ok not omitted from canonical form: %s", sc2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, line := range []string{
		"config=8proc plan=ce:1@500",                        // missing app
		"app=FLO52 plan=ce:1@500",                           // missing config
		"app=FLO52 config=8proc",                            // missing plan
		"app=FLO52 config=8proc plan=bogus",                 // bad plan grammar
		"app=FLO52 config=8proc plan=ce:1@500 expect=maybe", // bad expect
		"app=FLO52 config=8proc plan=ce:1@500 steps=-1",     // negative steps
		"app=FLO52 config=8proc plan=ce:1@500 color=red",    // unknown key
		"app=FLO52 config=8proc plan=ce:1@500 naked",        // not key=value
	} {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) accepted a bad line", line)
		}
	}
}

func TestCorpusLoadAndAppend(t *testing.T) {
	dir := t.TempDir()

	// Missing directory: empty corpus, no error.
	entries, err := LoadCorpus(filepath.Join(dir, "nonexistent"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("missing dir: entries=%d err=%v, want empty and nil", len(entries), err)
	}

	file := filepath.Join(dir, "b-second.scenario")
	if err := os.WriteFile(file, []byte(strings.Join([]string{
		"# a comment",
		"",
		"app=FLO52 config=8proc steps=1 seed=9 plan=ce:1@500",
		"  # indented comment",
		"app=FLO52 config=8proc steps=1 seed=9 plan=ce:2@500 expect=deadlock",
		"",
	}, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Parse("app=TRFD config=16proc steps=1 seed=4 plan=module:0@900")
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendCorpus(filepath.Join(dir, "a-first.scenario"), sc, "found by fuzzing\nkept for regression"); err != nil {
		t.Fatal(err)
	}
	// A stray non-corpus file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("app=BAD"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err = LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(entries))
	}
	// Files sort by name: a-first before b-second.
	if entries[0].Scenario.App != "TRFD" {
		t.Fatalf("corpus order wrong: first entry %+v", entries[0].Scenario)
	}
	if entries[1].Line != 3 || entries[2].Line != 5 {
		t.Fatalf("line provenance wrong: %d, %d (want 3, 5)", entries[1].Line, entries[2].Line)
	}
	if entries[2].Scenario.Expectation() != ExpectDeadlock {
		t.Fatalf("expect not loaded: %+v", entries[2].Scenario)
	}

	// A bad line fails loudly with its provenance.
	if err := os.WriteFile(filepath.Join(dir, "c-bad.scenario"), []byte("app=X\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), "c-bad.scenario:1") {
		t.Fatalf("bad corpus line not reported with provenance: %v", err)
	}
}

// TestShrinkDDMin drives the shrinker with a synthetic predicate: the
// failure reproduces iff the plan still kills CE 1 inside the window
// [70000, 80000]. Everything else must be stripped and the kill time
// snapped to the coarsest grid that stays inside the window.
func TestShrinkDDMin(t *testing.T) {
	sc, err := Parse("app=FLO52 config=8proc steps=1 seed=1 " +
		"plan=ce:4x3.75@47085,module:3x4@23648,ce:1@76414,lock:-1@30000+12345,ce:2@90000")
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	failing := func(cand Scenario) bool {
		runs++
		for _, ev := range cand.Plan {
			if ev.Kind == faults.CEFail && ev.Target == 1 &&
				ev.At >= 70_000 && ev.At <= 80_000 {
				return true
			}
		}
		return false
	}
	shrunk, spent := Shrink(sc, failing, 0)
	if len(shrunk.Plan) != 1 {
		t.Fatalf("shrunk to %d events (%s), want 1", len(shrunk.Plan), shrunk.Plan)
	}
	ev := shrunk.Plan[0]
	if ev.Kind != faults.CEFail || ev.Target != 1 {
		t.Fatalf("shrunk to wrong event: %s", ev)
	}
	if ev.At != 70_000 {
		t.Fatalf("kill time %d not simplified to 70000", ev.At)
	}
	if spent != runs || spent > 200 {
		t.Fatalf("run accounting wrong: spent=%d, predicate calls=%d", spent, runs)
	}

	// A scenario that does not fail comes back unchanged.
	ok, _ := Parse("app=FLO52 config=8proc steps=1 seed=1 plan=ce:5@999")
	same, _ := Shrink(ok, failing, 50)
	if same.String() != ok.String() {
		t.Fatalf("non-failing scenario was modified: %s", same)
	}
}

func TestShrinkRespectsMaxRuns(t *testing.T) {
	sc, err := Parse("app=FLO52 config=8proc steps=1 seed=1 plan=ce:1@100,ce:2@200,ce:3@300,ce:4@400")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, spent := Shrink(sc, func(Scenario) bool { calls++; return true }, 5)
	if calls > 5 || spent > 5 {
		t.Fatalf("maxRuns=5 exceeded: calls=%d spent=%d", calls, spent)
	}
}

func TestMergeWindows(t *testing.T) {
	got := MergeWindows([]Window{
		{Start: 500, End: 600},
		{Start: 100, End: 200},
		{Start: 150, End: 300}, // overlaps the previous
		{Start: 300, End: 350}, // touches: still one window
	})
	want := []Window{{Start: 100, End: 350}, {Start: 500, End: 600}}
	if len(got) != len(want) {
		t.Fatalf("merged to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged to %v, want %v", got, want)
		}
	}
	if MergeWindows(nil) != nil {
		t.Fatal("empty input must merge to nil")
	}
}

func TestSweepTimesDeterministicAndBounded(t *testing.T) {
	base, err := Parse("app=FLO52 config=8proc steps=1 seed=9 plan=port:0x4@1000")
	if err != nil {
		t.Fatal(err)
	}
	windows := []Window{{Start: 68_740, End: 78_403}, {Start: 3_000, End: 13_200}}
	ces := []int{1, 2, 3, 4, 5, 6, 7}

	a := SweepTimes(base, windows, ces, 16, 42, 25)
	b := SweepTimes(base, windows, ces, 16, 42, 25)
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("sweep sizes %d, %d, want 25", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("sweep not deterministic at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	differs := false
	for i := range a {
		if a[i].String() != SweepTimes(base, windows, ces, 16, 43, 25)[i].String() {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical sweeps")
	}

	for i, sc := range a {
		if sc.App != base.App || sc.Config != base.Config || sc.Seed != base.Seed {
			t.Fatalf("scenario %d lost base identity: %s", i, sc)
		}
		if len(sc.Plan) == 0 || sc.Plan[0] != base.Plan[0] {
			t.Fatalf("scenario %d dropped the base plan prefix: %s", i, sc)
		}
		kills := 0
		for _, ev := range sc.Plan {
			switch ev.Kind {
			case faults.CEFail:
				kills++
				found := false
				for _, c := range ces {
					if ev.Target == c {
						found = true
					}
				}
				if !found {
					t.Fatalf("scenario %d kills ineligible CE %d", i, ev.Target)
				}
				// Kill times stay near the windows (jitter <= 64 either side).
				near := false
				for _, w := range windows {
					if ev.At >= saturSub(w.Start, 64) && ev.At <= w.End+64 {
						near = true
					}
				}
				if !near {
					t.Fatalf("scenario %d kill at %d lands outside every window", i, ev.At)
				}
			case faults.CESlow:
				if ev.Factor < 1.25 {
					t.Fatalf("scenario %d slow factor %g < 1.25", i, ev.Factor)
				}
			case faults.ModuleSlow:
				if ev.Target < 0 || ev.Target >= 16 {
					t.Fatalf("scenario %d module %d out of range", i, ev.Target)
				}
			}
		}
		if kills == 0 {
			t.Fatalf("scenario %d has no fail-stop: %s", i, sc)
		}
	}

	if got := SweepTimes(base, nil, ces, 16, 1, 5); got != nil {
		t.Fatal("no windows must yield no scenarios")
	}
	if got := SweepTimes(base, windows, nil, 16, 1, 5); got != nil {
		t.Fatal("no eligible CEs must yield no scenarios")
	}
}

func saturSub(t sim.Time, d sim.Time) sim.Time {
	if d > t {
		return 0
	}
	return t - d
}
