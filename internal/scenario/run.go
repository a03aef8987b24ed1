package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/benchcmp"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Record is one extracted measurement: scenario × metric, stamped with
// the run's full identity (app, config, scale, seed, steps, plan) so a
// capture is self-describing — a diff that fails names exactly which
// experiment moved. Tol 0 means the value is deterministic model
// output and must match the baseline exactly; a positive Tol marks a
// wall-clock measurement gated within that fraction.
type Record struct {
	Scenario string  `json:"scenario"`
	App      string  `json:"app"`
	Config   string  `json:"config"`
	Scale    int     `json:"scale,omitempty"`
	Steps    int     `json:"steps,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Plan     string  `json:"plan,omitempty"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit,omitempty"`
	Value    float64 `json:"value"`
	Tol      float64 `json:"tol,omitempty"`
}

// Key identifies the record in a diff: scenario/metric.
func (r Record) Key() string { return r.Scenario + "/" + r.Metric }

// Options returns the facade options the scenario runs under — the
// one place a scenario becomes a cedar run.
func (sc *Scenario) Options() cedar.Options {
	return cedar.Options{
		Steps:     sc.Steps,
		Seed:      sc.Seed,
		Faults:    sc.Plan,
		MaxCycles: sim.Time(sc.MaxCycles),
		Parallel:  sc.Parallel,
	}
}

// Outcome classifies how a run ended: ExpectOK, ExpectDeadlock, or
// ExpectError.
func Outcome(err error) string {
	switch {
	case err == nil:
		return ExpectOK
	case errors.Is(err, sim.ErrDeadlock):
		return ExpectDeadlock
	default:
		return ExpectError
	}
}

// ErrExpectation marks a run whose outcome missed the scenario's
// declared expectation (errors.Is).
var ErrExpectation = errors.New("outcome missed the expectation")

// interrupted reports an error caused by stopping a run from outside
// the model — context cancellation or an expired deadline, usually
// surfaced as the kernel's *sim.CanceledError — as opposed to an
// outcome of the simulation itself.
func interrupted(err error) bool {
	return errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Check runs the scenario once and checks its expectation. It returns
// the run (nil when the simulation never started) and its outcome
// class. The error is nil when the outcome meets the expectation and
// matches ErrExpectation when it does not; a run interrupted from
// outside the model (ctx) returns the raw error and no outcome,
// because a truncated run is never a simulation result.
func Check(ctx context.Context, sc *Scenario) (*cedar.Run, string, error) {
	app, cfg, err := sc.Resolve()
	if err != nil {
		return nil, "", err
	}
	run, err := cedar.SimulateRunCtx(ctx, app, cfg, sc.Options())
	if err != nil && interrupted(err) {
		return run, "", err
	}
	outcome := Outcome(err)
	switch want := sc.Expectation(); {
	case outcome == want:
		return run, outcome, nil
	case want == ExpectOK:
		return run, outcome, fmt.Errorf("scenario %s: %w: %w", sc, ErrExpectation, err)
	case err != nil:
		return run, outcome, fmt.Errorf("scenario %s: %w: outcome %s, want %s (%v)", sc, ErrExpectation, outcome, want, err)
	default:
		return run, outcome, fmt.Errorf("scenario %s: %w: outcome %s, want %s", sc, ErrExpectation, outcome, want)
	}
}

// RunCtx executes one scenario and extracts its metric records.
// wallclock additionally measures MetricWallEventsPerSec
// (nondeterministic; see the metric's doc). A capture only ever holds
// completed runs: a scenario expected to fail contributes no records
// when it does, and a missed expectation is an error.
func RunCtx(ctx context.Context, sc *Scenario, wallclock bool) ([]Record, error) {
	start := time.Now()
	run, outcome, err := Check(ctx, sc)
	wall := time.Since(start)
	if err != nil || outcome != ExpectOK {
		return nil, err
	}
	return sc.extract(run, wall, wallclock)
}

// Run is RunCtx without cancellation.
func Run(sc *Scenario, wallclock bool) ([]Record, error) {
	return RunCtx(context.Background(), sc, wallclock)
}

// Replayed is one scenario's Replay verdict. Err is set when the
// scenario misbehaved: its outcome missed the expectation, or two runs
// were not bit-identical. Run is the first run.
type Replayed struct {
	Scenario *Scenario
	Run      *cedar.Run
	Err      error
}

// Replay verifies the record/replay contract for every scenario: each
// runs twice, must meet its expectation, and the two runs must render
// byte-identical statfx accounting (cedar.Run.StatfxText). Scenarios
// run concurrently per parallel (see engine.Workers); results come
// back in input order, so output built from them is identical at any
// setting.
func Replay(scs []*Scenario, parallel int) []Replayed {
	ctx := context.Background()
	return engine.Map(parallel, scs, func(_ int, sc *Scenario) Replayed {
		r := Replayed{Scenario: sc}
		r.Run, _, r.Err = Check(ctx, sc)
		if r.Err != nil || r.Run == nil {
			return r
		}
		again, _, err := Check(ctx, sc)
		if err != nil || again == nil || again.StatfxText() != r.Run.StatfxText() {
			r.Err = fmt.Errorf("scenario %s: replay not bit-identical across two runs", sc)
		}
		return r
	})
}

// extract pulls the scenario's metric set out of a finished run. The
// Table-2 decomposition comes from the run's metric registry snapshot
// — the same source StatfxText and every exporter render from — so a
// scenario capture is structurally consistent with them.
func (sc *Scenario) extract(run *cedar.Run, wall time.Duration, wallclock bool) ([]Record, error) {
	snap := run.Metrics().Snapshot()
	events := run.Machine.Kernel.EventsFired()
	ct := int64(run.Result.CT)

	stamp := func(metric, unit string, value, tol float64) Record {
		return Record{
			Scenario: sc.Name, App: sc.AppName(), Config: sc.Config,
			Scale: sc.ScaleFactor(), Steps: sc.Steps, Seed: sc.Seed,
			Plan: sc.Plan.String(), Metric: metric, Unit: unit,
			Value: value, Tol: tol,
		}
	}
	var out []Record
	for _, m := range sc.metricSet(wallclock) {
		switch m {
		case MetricCT:
			out = append(out, stamp(MetricCT, "cycles", float64(ct), 0))
		case MetricOSBreakdown:
			ot, ok := snap.Get("os_time_cycles")
			if !ok {
				return nil, fmt.Errorf("scenario %s: run snapshot has no os_time_cycles", sc.Name)
			}
			for _, cell := range ot.Cells {
				out = append(out, stamp(
					fmt.Sprintf("os_time_cycles[%s]", cell.Label[0]), "cycles", cell.Value, 0))
			}
		case MetricConcurrency:
			out = append(out, stamp(MetricConcurrency, "ces", run.Result.MachineConcurrency(), 0))
		case MetricEvents:
			out = append(out, stamp(MetricEvents, "events", float64(events), 0))
		case MetricSimEventsPerSec:
			v := 0.0
			if ct > 0 {
				v = float64(events) / arch.Seconds(ct)
			}
			out = append(out, stamp(MetricSimEventsPerSec, "events/simsec", v, 0))
		case MetricWallEventsPerSec:
			if !wallclock {
				continue // deterministic captures never carry wall time
			}
			v := 0.0
			if s := wall.Seconds(); s > 0 {
				v = float64(events) / s
			}
			out = append(out, stamp(MetricWallEventsPerSec, "events/sec", v, sc.WallTol))
		default:
			return nil, fmt.Errorf("scenario %s: unknown metric %q", sc.Name, m)
		}
	}
	return out, nil
}

// RunAll executes the scenarios through the shared worker pool
// (internal/engine) and returns their records concatenated in scenario
// order — byte-identical at any worker count, like every other batch
// surface. The first scenario error aborts the batch.
func RunAll(ctx context.Context, scs []*Scenario, workers int, wallclock bool) ([]Record, error) {
	type result struct {
		recs []Record
		err  error
	}
	results, err := engine.MapCtx(ctx, workers, scs,
		func(ctx context.Context, _ int, sc *Scenario) result {
			recs, rerr := RunCtx(ctx, sc, wallclock)
			return result{recs, rerr}
		})
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.recs...)
	}
	return out, nil
}

// capture is the on-disk BENCH_scenarios.json shape.
type capture struct {
	Version int      `json:"version"`
	Records []Record `json:"records"`
}

// captureVersion stamps the file format.
const captureVersion = 1

// EncodeCapture renders records as the canonical capture document:
// version header, records sorted by (scenario, metric), one record
// per line. Two encodings of the same records are byte-identical, so
// a committed capture diffs cleanly and the determinism acceptance
// check (run twice, compare bytes) is meaningful.
func EncodeCapture(recs []Record) ([]byte, error) {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Scenario != sorted[j].Scenario {
			return sorted[i].Scenario < sorted[j].Scenario
		}
		return sorted[i].Metric < sorted[j].Metric
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"version\": %d,\n  \"records\": [\n", captureVersion)
	for i, r := range sorted {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(sorted)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes(), nil
}

// WriteCaptureFile writes the canonical capture atomically enough for
// a CLI: full encode, then one WriteFile.
func WriteCaptureFile(path string, recs []Record) error {
	data, err := EncodeCapture(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadCapture parses a capture document.
func ReadCapture(r io.Reader) ([]Record, error) {
	var c capture
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, err
	}
	if c.Version != captureVersion {
		return nil, fmt.Errorf("capture version %d, want %d", c.Version, captureVersion)
	}
	return c.Records, nil
}

// LoadCapture reads a capture file.
func LoadCapture(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadCapture(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// toMap indexes records by key, rejecting duplicates.
func toMap(recs []Record, src string) (map[string]float64, map[string]Record, error) {
	vals := make(map[string]float64, len(recs))
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		k := r.Key()
		if _, dup := byKey[k]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate record %s", src, k)
		}
		vals[k] = r.Value
		byKey[k] = r
	}
	return vals, byKey, nil
}

// Diff gates fresh records against a baseline capture through the
// shared benchcmp core: exact for deterministic records (Tol 0),
// toleranced for wall-clock ones, and — because a scenario capture
// exists to prove properties of specific named experiments — a record
// present in the baseline but missing from the fresh run is fatal, as
// is an empty intersection.
func Diff(oldRecs, newRecs []Record) (*benchcmp.Report, error) {
	oldVals, oldBy, err := toMap(oldRecs, "baseline capture")
	if err != nil {
		return nil, err
	}
	newVals, newBy, err := toMap(newRecs, "fresh capture")
	if err != nil {
		return nil, err
	}
	spec := func(name string) benchcmp.Spec {
		r, ok := newBy[name]
		if !ok {
			r = oldBy[name]
		}
		if r.Tol > 0 {
			return benchcmp.Spec{Tol: r.Tol}
		}
		return benchcmp.Spec{Exact: true}
	}
	return benchcmp.Compare(oldVals, newVals, spec, true), nil
}
