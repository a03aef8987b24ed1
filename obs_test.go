package cedar

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/statfx"
)

// observedRun is the FLO52/Cedar16 run the acceptance checks share.
func observedRun(t *testing.T) *Run {
	t.Helper()
	return mustRun(t, perfect.FLO52(), arch.Cedar16, Options{
		Steps:         1,
		TraceCapacity: 1 << 20,
		Observe:       &obs.Options{},
	})
}

// TestObservationDoesNotPerturbSimulation: probes are pure reads and
// span recording happens outside virtual time, so an observed run must
// complete in exactly the same number of cycles as an unobserved one.
func TestObservationDoesNotPerturbSimulation(t *testing.T) {
	plain := mustRun(t, perfect.FLO52(), arch.Cedar16, Options{Steps: 1}).Result
	seen := observedRun(t)
	if plain.CT != seen.Result.CT {
		t.Fatalf("observation changed the run: CT %d (plain) vs %d (observed)",
			plain.CT, seen.Result.CT)
	}
}

// TestTraceExportIsValid checks the Chrome/Perfetto contract on a real
// run: parseable JSON, nondecreasing timestamps, nonnegative complete-
// event durations, and balanced async begin/end pairs.
func TestTraceExportIsValid(t *testing.T) {
	run := observedRun(t)
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, run.TraceBundle()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			ID  string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	lastTs := math.Inf(-1)
	async := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("event %d: ts %v < previous %v", i, e.Ts, lastTs)
		}
		lastTs = e.Ts
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Fatalf("event %d: negative duration %v", i, e.Dur)
			}
		case "b":
			async[e.ID]++
		case "e":
			async[e.ID]--
		case "i": // instants carry no duration
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	for id, n := range async {
		if n != 0 {
			t.Fatalf("async id %s: %d unmatched begin/end events", id, n)
		}
	}
}

// TestFoldedProfileBudget: the folded profile is a complete accounting
// of the run — every CE's stack weights sum to exactly the completion
// time, so the machine-wide total is CT x CEs.
func TestFoldedProfileBudget(t *testing.T) {
	run := observedRun(t)
	var buf bytes.Buffer
	if err := obs.WriteFolded(&buf, run.Result.App, run.Result.CT, run.Machine.Accounts()); err != nil {
		t.Fatal(err)
	}
	perCE := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		stack, wStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed folded line %q", line)
		}
		w, err := strconv.ParseInt(wStr, 10, 64)
		if err != nil || w < 0 {
			t.Fatalf("bad weight in %q", line)
		}
		frames := strings.Split(stack, ";")
		if len(frames) != 4 || frames[0] != "FLO52" {
			t.Fatalf("want app;ce;group;category in %q", line)
		}
		perCE[frames[1]] += w
	}
	ces := run.Machine.Cfg.CEs()
	if len(perCE) != ces {
		t.Fatalf("profile covers %d CEs, want %d", len(perCE), ces)
	}
	for ce, total := range perCE {
		if total != int64(run.Result.CT) {
			t.Fatalf("%s weights sum to %d, want CT %d", ce, total, int64(run.Result.CT))
		}
	}
}

// TestSeriesMatchesStatfx: the collector's sampled concurrency series
// must agree with the statfx monitors — near-exactly with the Sampler
// (same signal, same cadence) and within sampling error of Exact. Both
// samplers run at a fine 500-cycle cadence: at the default 10k-cycle
// grid a 1-step run yields under 40 samples, too few for the sampled
// mean to track the integrated value (the convergence property
// TestSamplerConvergesToExact characterizes).
func TestSeriesMatchesStatfx(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar16, Options{
		Steps:           1,
		SamplerInterval: 500,
		Observe:         &obs.Options{SeriesInterval: 500},
	})
	mean, err := run.Series.Mean("concurrency")
	if err != nil {
		t.Fatal(err)
	}
	// Same predicate, same cadence as the statfx Sampler: the two must
	// agree to within a couple of percent (their grids are phase-
	// shifted by one interval, no more).
	if sampled := run.Result.SampledConcurrency; math.Abs(mean-sampled) > 0.02*sampled {
		t.Fatalf("series mean %v vs statfx sampled %v", mean, sampled)
	}
	// Against the account-integrated value the sampled mean sits below:
	// time charged retroactively after a blocking wait (lock handoff,
	// condition wakeup) is active in the accounts but was never a
	// visible busy state at any sample instant. The envelope bounds
	// that structural gap without asserting it away.
	exact := statfx.ExactMachine(run.Machine, run.Result.CT)
	if mean > exact*1.02 || mean < exact*0.6 {
		t.Fatalf("series mean %v vs exact %v: outside the sampling envelope", mean, exact)
	}

	var buf bytes.Buffer
	if err := obs.WriteCSV(&buf, run.Series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != run.Series.Len()+1 {
		t.Fatalf("CSV has %d lines, want header + %d samples", len(lines), run.Series.Len())
	}
	cols := strings.Split(lines[0], ",")
	idx := -1
	for i, c := range cols {
		if c == "concurrency" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no concurrency column in %q", lines[0])
	}
	sum, n := 0.0, 0
	for _, line := range lines[1:] {
		v, err := strconv.ParseFloat(strings.Split(line, ",")[idx], 64)
		if err != nil {
			t.Fatalf("bad CSV value in %q: %v", line, err)
		}
		sum += v
		n++
	}
	if csvMean := sum / float64(n); math.Abs(csvMean-mean) > 1e-9 {
		t.Fatalf("CSV mean %v != collector mean %v", csvMean, mean)
	}
}

// TestObserveDisabledHasNoRecorder: the zero-cost path — no Observe
// option, no recorder, and the nil recorder tolerates every call the
// wired subsystems might make.
func TestObserveDisabledHasNoRecorder(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar4, Options{Steps: 1})
	if run.Obs != nil || run.Series != nil {
		t.Fatal("recorder present without Options.Observe")
	}
	if run.Obs.Enabled() {
		t.Fatal("nil recorder claims to be enabled")
	}
	b := run.TraceBundle() // must still work from the hpm-free, obs-free run
	if len(b.Spans) != 0 {
		t.Fatalf("spans from a run with no monitor and no recorder: %d", len(b.Spans))
	}
}

// TestObservedFaultRunRecordsFaultSpans: fault activations surface in
// the trace bundle (the lock stall as a machine-track span, the
// fail-stop as instants).
func TestObservedFaultRunRecordsFaultSpans(t *testing.T) {
	run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar16, Options{
		Steps:   1,
		Observe: &obs.Options{},
		Faults:  mustPlan(t, "lock:0@50000+20000,ce:5@100000"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bundle := run.TraceBundle()
	var lockSpan, failInstant bool
	for _, s := range bundle.Spans {
		if s.Cat == obs.CatFault && s.Name == "lock-stall" && s.Track == obs.TrackMachine {
			lockSpan = true
		}
	}
	for _, in := range bundle.Instants {
		if in.Cat == obs.CatFault && in.Name == "ce-fail" {
			failInstant = true
		}
	}
	if !lockSpan {
		t.Error("no lock-stall span on the machine track")
	}
	if !failInstant {
		t.Error("no ce-fail instant")
	}
}
