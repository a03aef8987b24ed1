package cedar_test

// End-to-end tests of the record/replay contract through the facade:
// a scenario pins everything a run depends on, and re-running it
// reproduces the run bit for bit (internal/scenario is the runner).

import (
	"context"
	"errors"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const corpusDir = "testdata/faultcorpus"

func loadCorpus(t *testing.T) []*scenario.Scenario {
	t.Helper()
	scs, err := scenario.LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// TestCorpusReplay replays every checked-in scenario and verifies its
// declared outcome. This is the regression suite for the fail-stop
// page-fault deadlock: the ROADMAP schedule lives here and must keep
// completing.
func TestCorpusReplay(t *testing.T) {
	sawRoadmap := false
	for _, sc := range loadCorpus(t) {
		t.Run(sc.Plan.String(), func(t *testing.T) {
			if _, _, err := scenario.Check(context.Background(), sc); err != nil {
				t.Errorf("%s: %v", sc.File, err)
			}
		})
		if sc.Plan.String() == "ce:4x1.25@47085,ce:1@76414,module:3x2@23648" {
			sawRoadmap = true
		}
	}
	if !sawRoadmap {
		t.Error("the ROADMAP fail-stop schedule is missing from the corpus")
	}
}

// TestReplayBitIdentical: replaying the same scenario twice must
// produce byte-identical statfx output — the record/replay contract.
func TestReplayBitIdentical(t *testing.T) {
	sc, err := scenario.ParseLine(
		"app=FLO52 config=8proc steps=1 seed=3327910339796038169 " +
			"plan=ce:4x1.25@47085,ce:1@76414,module:3x2@23648")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := scenario.Check(context.Background(), sc)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	b, _, err := scenario.Check(context.Background(), sc)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	ta, tb := a.StatfxText(), b.StatfxText()
	if ta != tb {
		t.Fatalf("replays diverged:\n--- first ---\n%s--- second ---\n%s", ta, tb)
	}
	if !strings.Contains(ta, "faults seq=") || !strings.Contains(ta, "os ") {
		t.Fatalf("statfx text missing sections:\n%s", ta)
	}
}

// A scenario with its seed pinned (what cedarsim -record-scenario and
// the cedarfuzz sweep write) round-trips through both text forms and
// replays to the same run as the unpinned original.
func TestRecordScenarioRoundTrip(t *testing.T) {
	plan, err := faults.Parse("ce:1@76414,module:3x2@23648")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scenario.Scenario{Name: "rec", App: "FLO52", Config: arch.Cedar8.Name,
		Steps: 1, Scale: 1, Plan: plan, WallTol: 0.5}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sc.PinSeed(); err != nil {
		t.Fatal(err)
	}
	if want := (cedar.Options{}).KernelSeed(perfect.FLO52(), arch.Cedar8); sc.Seed != want {
		t.Fatalf("pinned seed %d, the run uses %d", sc.Seed, want)
	}
	line, err := sc.Line()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.ParseLine(line)
	if err != nil {
		t.Fatalf("recorded line does not parse: %v", err)
	}
	if again, _ := parsed.Line(); again != line {
		t.Fatalf("record/parse round trip unstable:\n%s\n%s", line, again)
	}
	doc, err := scenario.Parse("fallback", sc.Document(""))
	if err != nil {
		t.Fatalf("recorded document does not parse: %v", err)
	}
	if again, _ := doc.Line(); again != line {
		t.Fatalf("document round trip changed the run:\n%s\n%s", line, again)
	}
	// An explicit seed stays as it is.
	explicit := *sc
	explicit.Seed = 77
	if err := explicit.PinSeed(); err != nil || explicit.Seed != 77 {
		t.Fatalf("explicit seed not kept: %d, %v", explicit.Seed, err)
	}
	// The recorded scenario replays to the same run as the original call.
	orig, err := cedar.SimulateRunErr(perfect.FLO52(), arch.Cedar8, cedar.Options{Steps: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := scenario.Check(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if orig.StatfxText() != rep.StatfxText() {
		t.Fatal("replaying the recorded scenario diverged from the original run")
	}
}

func TestOutcomeClassification(t *testing.T) {
	if got := scenario.Outcome(nil); got != scenario.ExpectOK {
		t.Fatalf("Outcome(nil) = %q", got)
	}
	if got := scenario.Outcome(sim.ErrDeadlock); got != scenario.ExpectDeadlock {
		t.Fatalf("Outcome(ErrDeadlock) = %q", got)
	}
	if got := scenario.Outcome(errors.New("boom")); got != scenario.ExpectError {
		t.Fatalf("Outcome(err) = %q", got)
	}
}

func TestReplayUnknownNames(t *testing.T) {
	if _, err := scenario.ParseLine("app=NOPE config=8proc plan=ce:1@500"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := scenario.ParseLine("app=FLO52 config=9000proc plan=ce:1@500"); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestReplayParallelMatchesSequential(t *testing.T) {
	scs := loadCorpus(t)
	seq := scenario.Replay(scs, 1)
	par := scenario.Replay(scs, 4)
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("result counts: seq %d, par %d, want %d", len(seq), len(par), len(scs))
	}
	for i := range scs {
		if seq[i].Scenario != scs[i] || par[i].Scenario != scs[i] {
			t.Fatalf("entry %d: results not in corpus order", i)
		}
		if seq[i].Err != nil {
			t.Fatalf("entry %d (%s): %v", i, scs[i].File, seq[i].Err)
		}
		if par[i].Err != nil {
			t.Fatalf("entry %d (%s) parallel: %v", i, scs[i].File, par[i].Err)
		}
		if seq[i].Run != nil && seq[i].Run.StatfxText() != par[i].Run.StatfxText() {
			t.Fatalf("entry %d (%s): accounting differs between sequential and parallel", i, scs[i].File)
		}
	}
}
