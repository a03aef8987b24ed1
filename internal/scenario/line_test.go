package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Every line the one-line form could express before it folded into
// the scenario type renders back byte for byte.
func TestLineRoundTrip(t *testing.T) {
	lines := []string{
		"app=FLO52 config=8proc steps=1 seed=3327910339796038169 plan=ce:4x1.25@47085,ce:1@76414,module:3x2@23648",
		"app=FLO52 config=16proc steps=2 seed=-7 plan=ce:1@76414 expect=deadlock",
		"app=OCEAN config=8proc steps=0 seed=0 plan=lock:-1@50000+50000,storm:0@100000 expect=error",
		"app=gen:seed=14,hot=1 config=8proc steps=1 seed=5 plan=ce:1@50000",
		"app=FLO52 config=scaled64 steps=1 seed=9 plan=ce:1@500 scale=2 max_cycles=100000000",
		"app=FLO52 config=8proc steps=1 seed=9 plan=",
	}
	for _, line := range lines {
		sc, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		got, err := sc.Line()
		if err != nil || got != line {
			t.Errorf("round trip changed the line:\n in: %s\nout: %s (%v)", line, got, err)
		}
		if sc.String() != line {
			t.Errorf("a line scenario labels itself %q, want the line", sc)
		}
		doc, err := Parse("doc", sc.Document(""))
		if err != nil {
			t.Fatalf("document of %q does not parse: %v", line, err)
		}
		if again, _ := doc.Line(); again != line {
			t.Errorf("document round trip changed the run:\n in: %s\nout: %s", line, again)
		}
	}
}

func TestParseLineKeyOrderAndDefaults(t *testing.T) {
	sc, err := ParseLine("plan=ce:1@500 config=8proc app=FLO52")
	if err != nil {
		t.Fatal(err)
	}
	if sc.App != "FLO52" || sc.Config != "8proc" || sc.Steps != 0 || sc.Seed != 0 {
		t.Fatalf("parsed fields wrong: %+v", sc)
	}
	if sc.Expectation() != ExpectOK {
		t.Fatalf("default expectation = %q, want %q", sc.Expectation(), ExpectOK)
	}
	// A line without scale= runs unscaled, even on a scaled member.
	scaled, err := ParseLine("app=FLO52 config=scaled64 plan=ce:1@500")
	if err != nil {
		t.Fatal(err)
	}
	if scaled.ScaleFactor() != 1 {
		t.Fatalf("line scale on scaled64 = %d, want 1", scaled.ScaleFactor())
	}
	// expect=ok is valid input but canonically omitted.
	sc2, err := ParseLine("app=FLO52 config=8proc plan=ce:1@500 expect=ok")
	if err != nil {
		t.Fatal(err)
	}
	if line, _ := sc2.Line(); strings.Contains(line, "expect=") {
		t.Fatalf("expect=ok not omitted from canonical form: %s", line)
	}
}

func TestParseLineErrors(t *testing.T) {
	for line, want := range map[string]string{
		"config=8proc plan=ce:1@500":                        "missing app=",
		"app=FLO52 plan=ce:1@500":                           "missing config=",
		"app=FLO52 config=8proc":                            "missing plan=",
		"app=FLO52 config=8proc plan=bogus":                 `"plan=bogus"`,
		"app=FLO52 config=8proc plan=ce:1@500 expect=maybe": `"expect=maybe"`,
		"app=FLO52 config=8proc plan=ce:1@500 steps=-1":     `"steps=-1"`,
		"app=FLO52 config=8proc plan=ce:1@500 scale=0":      `"scale=0"`,
		"app=FLO52 config=8proc plan=ce:1@500 color=red":    `"color=red"`,
		"app=FLO52 config=8proc plan=ce:1@500 naked":        `"naked"`,
		"app=FLO52 config=8proc plan=ce:99@500":             "out of range",
		"app=NOPE config=8proc plan=ce:1@500":               "NOPE",
	} {
		_, err := ParseLine(line)
		if err == nil {
			t.Errorf("ParseLine(%q) accepted a bad line", line)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseLine(%q) = %v, want it to name %s", line, err, want)
		}
	}
}

// An inline workload document has no one-line form: rendering one
// would replay a different run.
func TestLineRefusesWorkloadBlock(t *testing.T) {
	sc, err := Parse("block", []byte("config: 1proc\nworkload:\n  workload: probe\n  steps: 1\n  data_words: 4096\n  phase: serial s\n    work: 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if line, err := sc.Line(); err == nil {
		t.Fatalf("workload block rendered as a line: %s", line)
	}
	if sc.String() != "block" {
		t.Fatalf("label = %q, want the name", sc)
	}
}

// The document printer reproduces committed documents byte for byte:
// the promoted pathology scenarios and the fault corpus.
func TestDocumentMatchesCommittedFiles(t *testing.T) {
	paths, _ := filepath.Glob("../../testdata/faultcorpus/*" + Ext)
	for _, name := range []string{"fuzz-hotspot-14", "fuzz-barrier-convoy-36"} {
		paths = append(paths, "../../testdata/scenarios/"+name+Ext)
	}
	if len(paths) < 5 {
		t.Fatalf("found only %d committed documents", len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var comment []string
		for _, l := range strings.Split(string(data), "\n") {
			c, ok := strings.CutPrefix(l, "# ")
			if !ok {
				break
			}
			comment = append(comment, c)
		}
		if got := string(sc.Document(strings.Join(comment, "\n"))); got != string(data) {
			t.Errorf("%s: printer output differs:\n--- file ---\n%s--- printed ---\n%s", path, data, got)
		}
	}
}

func TestLoadDirFaultCorpus(t *testing.T) {
	scs, err := LoadDir("../../testdata/faultcorpus")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"main-cluster-killed":           ExpectDeadlock,
		"roadmap-pgflt-deadlock":        ExpectOK,
		"roadmap-pgflt-deadlock-shrunk": ExpectOK,
	}
	if len(scs) != len(want) {
		t.Fatalf("loaded %d corpus scenarios, want %d", len(scs), len(want))
	}
	for _, sc := range scs {
		if got, ok := want[sc.Name]; !ok || got != sc.Expectation() {
			t.Errorf("%s: expectation %q, want %q", sc.Name, sc.Expectation(), got)
		}
		if _, err := sc.Line(); err != nil {
			t.Errorf("%s: corpus scenario has no line form: %v", sc.Name, err)
		}
	}
}

// deadlockDoc kills every CE of the main cluster: a deadlock by design
// (testdata/faultcorpus/main-cluster-killed.scenario).
const deadlockDoc = "app: FLO52\nconfig: 16proc\nsteps: 1\nseed: 1645508699426838620\n" +
	"plan: ce:0@50000,ce:1@50000,ce:2@50000,ce:3@50000,ce:4@50000,ce:5@50000,ce:6@50000,ce:7@50000\n"

// A met non-ok expectation contributes no capture records; a missed
// expectation is an error in both directions.
func TestRunExpectation(t *testing.T) {
	sc, err := Parse("deadlock", []byte(deadlockDoc+"expect: deadlock\n"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunCtx(context.Background(), sc, false)
	if err != nil || len(recs) != 0 {
		t.Fatalf("met deadlock expectation: %d records, err %v", len(recs), err)
	}
	run, outcome, err := Check(context.Background(), sc)
	if err != nil || outcome != ExpectDeadlock || run == nil {
		t.Fatalf("Check = %v, %q, %v", run, outcome, err)
	}

	healthy := tiny(t)
	healthy.Expect = ExpectDeadlock
	if _, err := RunCtx(context.Background(), healthy, false); !errors.Is(err, ErrExpectation) {
		t.Fatalf("healthy run expected to deadlock: err = %v", err)
	}
	ok, err := Parse("deadlock", []byte(deadlockDoc))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Check(context.Background(), ok); !errors.Is(err, ErrExpectation) || !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlock expected ok: err = %v, want ErrExpectation wrapping sim.ErrDeadlock", err)
	}
}

// Attempts stopped from outside the model — cancellation or a
// deadline, bare or wrapped in the kernel's CanceledError — must never
// be classified as simulation outcomes; real in-model terminations
// must.
func TestIsInterruptedClassification(t *testing.T) {
	for _, err := range []error{
		&sim.CanceledError{At: 5, Cause: context.DeadlineExceeded},
		&sim.CanceledError{At: 5, Cause: context.Canceled},
		context.Canceled,
		fmt.Errorf("attempt deadline 40ms exceeded: %w", context.DeadlineExceeded),
	} {
		if !interrupted(err) {
			t.Errorf("interrupted(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		&sim.DeadlockError{At: 1, Live: 2},
		&sim.CycleBudgetError{Budget: 10, Now: 10, Live: 1},
		errors.New("model blew up"),
	} {
		if interrupted(err) {
			t.Errorf("interrupted(%v) = true, want false", err)
		}
	}
}
