package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// Job types accepted by the service. Each becomes a list of scenarios
// run the same way; a type only decides how the list is built and how
// each run is reported.
const (
	TypeSimulate = "simulate" // one app on one configuration
	TypeSweep    = "sweep"    // one app across a configuration list
	TypeReplay   = "replay"   // one recorded fault scenario
	TypeCorpus   = "corpus"   // a batch of scenario lines, each verified
	TypeBench    = "bench"    // one declarative benchmark scenario document
)

// JobSpec is the submitted description of one job (the POST /jobs
// body). Fields are per-type; Validate names misuse precisely.
type JobSpec struct {
	// Type selects the job shape: simulate, sweep, replay, corpus, or
	// bench.
	Type string `json:"type"`
	// App is the application name (simulate, sweep). Registry names and
	// single-line gen: specs both resolve; exactly one of App and
	// Workload must be set for these job types.
	App string `json:"app,omitempty"`
	// Workload is an inline workload document or gen: spec (simulate,
	// sweep) — the full-document alternative to App. File paths are
	// rejected: a remote caller must not read server-side files. The
	// source text folds into the result-cache key, so two generated
	// apps differing in any knob never share a cache slot.
	Workload string `json:"workload,omitempty"`
	// Config is the configuration name (simulate).
	Config string `json:"config,omitempty"`
	// Configs lists configuration names for a sweep; empty means the
	// paper's five.
	Configs []string `json:"configs,omitempty"`
	// Steps overrides the timestep count when > 0 (simulate, sweep).
	Steps int `json:"steps,omitempty"`
	// Seed overrides the deterministic kernel seed when non-zero
	// (simulate, sweep).
	Seed int64 `json:"seed,omitempty"`
	// Plan is a fault plan in the faults.Parse grammar (simulate).
	Plan string `json:"plan,omitempty"`
	// Scenario is a recorded scenario line (replay).
	Scenario string `json:"scenario,omitempty"`
	// Corpus is a list of scenario lines (corpus).
	Corpus []string `json:"corpus,omitempty"`
	// Bench is a declarative benchmark scenario document (bench): the
	// text of one .scenario file in the internal/scenario format. The
	// result payload is the scenario's canonical record capture —
	// deterministic, so warm resubmits come straight from the cache.
	Bench string `json:"bench,omitempty"`
	// DeadlineMS caps each attempt's wall-clock run time in
	// milliseconds; 0 uses the server default. Enforced by context
	// cancellation threaded into the simulation kernel.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxCycles caps virtual time (0 = unlimited): the in-model
	// counterpart of the wall-clock deadline. When set it overrides
	// every scenario's own budget.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Parallel bounds how many of the job's scenarios run at once, for
	// every job kind (0 = GOMAXPROCS); only sweep and corpus jobs have
	// more than one.
	Parallel int `json:"parallel,omitempty"`
	// NoCache skips the result cache for this job (both lookup and
	// fill).
	NoCache bool `json:"no_cache,omitempty"`
}

// Validate checks the spec against the live application and
// configuration registries and turns it into the scenarios the job
// runs, so a bad request is rejected at submit time (400), never
// discovered by a worker: simulate is one unscaled scenario, sweep one
// per configuration, replay and corpus their parsed lines, bench the
// parsed document. scenario.Validate resolves every source without
// file access — the spec arrived over the network.
func (sp *JobSpec) Validate() ([]*scenario.Scenario, error) {
	var configs, lines []string
	var scs []*scenario.Scenario
	switch sp.Type {
	case TypeSimulate:
		configs = []string{sp.Config}
	case TypeSweep:
		if sp.Plan != "" {
			return nil, fmt.Errorf("sweep jobs do not take a fault plan (submit per-config simulate jobs)")
		}
		if len(sp.Configs) == 0 {
			for _, c := range arch.PaperConfigs() {
				sp.Configs = append(sp.Configs, c.Name) // canonicalized: the cache key names them
			}
		}
		configs = sp.Configs
	case TypeReplay:
		lines = []string{sp.Scenario}
	case TypeCorpus:
		if len(sp.Corpus) == 0 {
			return nil, fmt.Errorf("corpus job without scenario lines")
		}
		lines = sp.Corpus
	case TypeBench:
		if strings.TrimSpace(sp.Bench) == "" {
			return nil, fmt.Errorf("bench job without a scenario document")
		}
		sc, err := scenario.Parse("bench", []byte(sp.Bench))
		if err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	case "":
		return nil, fmt.Errorf("missing job type (want %s, %s, %s, %s, or %s)",
			TypeSimulate, TypeSweep, TypeReplay, TypeCorpus, TypeBench)
	default:
		return nil, fmt.Errorf("unknown job type %q (want %s, %s, %s, %s, or %s)",
			sp.Type, TypeSimulate, TypeSweep, TypeReplay, TypeCorpus, TypeBench)
	}
	var plan faults.Plan
	if sp.Plan != "" && len(configs) > 0 {
		var err error
		if plan, err = faults.Parse(sp.Plan); err != nil {
			return nil, err
		}
	}
	// A simulate or sweep run is the spec's app on one configuration,
	// never weak-scaled.
	for _, config := range configs {
		sc := &scenario.Scenario{Name: sp.Type, App: sp.App, Workload: sp.Workload,
			Config: config, Steps: sp.Steps, Scale: 1, Seed: sp.Seed, Plan: plan}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		scs = append(scs, sc)
	}
	for i, line := range lines {
		sc, err := scenario.ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", sp.Type, i+1, err)
		}
		scs = append(scs, sc)
	}
	if sp.DeadlineMS < 0 {
		return nil, fmt.Errorf("negative deadline_ms %d", sp.DeadlineMS)
	}
	if sp.MaxCycles < 0 {
		return nil, fmt.Errorf("negative max_cycles %d", sp.MaxCycles)
	}
	if sp.Parallel < 0 {
		return nil, fmt.Errorf("negative parallel %d", sp.Parallel)
	}
	return scs, nil
}

// cacheKey derives the content-address of the job's result. The
// version stamp makes results model-output-versioned; corpus jobs
// fold their scenario lines into the Plan field so any edit misses.
func (sp *JobSpec) cacheKey(version string) resultcache.Key {
	k := resultcache.Key{Kind: sp.Type, Version: version,
		Steps: sp.Steps, Seed: sp.Seed, MaxCycles: sp.MaxCycles}
	switch sp.Type {
	case TypeSimulate:
		k.App, k.Config, k.Plan = sp.App, sp.Config, sp.Plan
		k.Workload = sp.Workload
	case TypeSweep:
		k.App, k.Config = sp.App, strings.Join(sp.Configs, ",")
		k.Workload = sp.Workload
	case TypeReplay:
		k.App = "replay"
		k.Plan = sp.Scenario
		k.Steps, k.Seed = 0, 0
	case TypeCorpus:
		k.App = "corpus"
		k.Plan = strings.Join(sp.Corpus, "\n")
		k.Steps, k.Seed = 0, 0
	case TypeBench:
		// The document text is the whole identity (any edit misses);
		// spec MaxCycles stays in the key because it folds into the run.
		k.App = "bench"
		k.Plan = sp.Bench
		k.Steps, k.Seed = 0, 0
	}
	return k
}

// piece is one scenario's share of a job result: its payload text, or
// the error that fails the job. missed marks a corpus line whose run
// missed its expectation.
type piece struct {
	text   string
	missed bool
	err    error
}

// execute runs the job's scenarios under ctx through scenario.Check,
// concurrently per Parallel, and joins each run's payload piece in
// scenario order. The spec's max_cycles, when set, budgets every run;
// it is applied here rather than in Validate so a replayed line is
// reported as submitted.
func (sp *JobSpec) execute(ctx context.Context, scs []*scenario.Scenario, progress func(string)) ([]byte, error) {
	pieces, err := engine.MapCtx(ctx, sp.Parallel, scs,
		func(ctx context.Context, i int, sc *scenario.Scenario) piece {
			budgeted := sc
			if sp.MaxCycles > 0 {
				c := *sc
				c.MaxCycles = sp.MaxCycles
				budgeted = &c
			}
			run, outcome, err := scenario.Check(ctx, budgeted)
			p, msg := sp.piece(i, len(scs), sc, run, outcome, err)
			if msg != "" {
				progress(msg)
			}
			return p
		})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	missed := 0
	for _, p := range pieces {
		if p.err != nil {
			return nil, p.err
		}
		if p.missed {
			missed++
		}
		b.WriteString(p.text)
	}
	if missed > 0 {
		return b.Bytes(), fmt.Errorf("%d of %d corpus scenario(s) missed their expectation", missed, len(pieces))
	}
	return b.Bytes(), nil
}

// piece formats scenario i of n's run as the job kind's payload piece
// and progress line ("" for none). Simulate and sweep pieces are
// Run.StatfxText — the byte-stable accounting block the replay
// machinery compares — so a service result is directly diffable
// against a local cedarsim run.
func (sp *JobSpec) piece(i, n int, sc *scenario.Scenario, run *cedar.Run, outcome string, err error) (piece, string) {
	if sp.Type == TypeCorpus && (err == nil || errors.Is(err, scenario.ErrExpectation)) {
		status := "ok"
		if err != nil {
			status = fmt.Sprintf("FAIL (outcome %s, want %s)", outcome, sc.Expectation())
		}
		line, _ := sc.Line()
		return piece{text: status + " " + line + "\n", missed: err != nil},
			fmt.Sprintf("corpus %d/%d: %s", i+1, n, status)
	}
	if err != nil {
		if sp.Type == TypeSweep {
			err = fmt.Errorf("config %s: %w", sc.Config, err)
		}
		return piece{err: err}, ""
	}
	switch sp.Type {
	case TypeSimulate:
		return piece{text: run.StatfxText()},
			fmt.Sprintf("simulated %s on %s: ct=%d", sc.AppName(), sc.Config, int64(run.Result.CT))
	case TypeSweep:
		cfg := run.Machine.Cfg.Name // canonical, whatever alias the spec named
		return piece{text: "== " + cfg + "\n" + run.StatfxText()},
			fmt.Sprintf("swept %s on %s: ct=%d", sc.AppName(), cfg, int64(run.Result.CT))
	case TypeReplay:
		line, _ := sc.Line()
		text := fmt.Sprintf("scenario %s\noutcome %s\n", line, outcome)
		if run != nil {
			text += run.StatfxText()
		}
		return piece{text: text}, fmt.Sprintf("replayed %s: outcome %s", line, outcome)
	}
	// A bench piece is the canonical capture encoding: deterministic
	// bytes, directly diffable against a cedarbench run of the same
	// document. A met non-ok expectation captures no records.
	var recs []scenario.Record
	if outcome == scenario.ExpectOK {
		if recs, err = sc.Records(run, 0); err != nil {
			return piece{err: err}, ""
		}
	}
	capture, err := scenario.EncodeCapture(recs)
	if err != nil {
		return piece{err: err}, ""
	}
	return piece{text: string(capture)}, fmt.Sprintf("bench %s: %d record(s)", sc.Name, len(recs))
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// ProgressEvent is one line of a job's progress log, streamed by
// GET /jobs/{id}/events.
type ProgressEvent struct {
	At  time.Time `json:"at"`
	Msg string    `json:"msg"`
}

// Job is the server-side record of one submitted job. All fields are
// guarded by the server's mutex; JSON views are built from snapshots.
type Job struct {
	ID   string
	Spec JobSpec

	State    string
	Retries  int
	CacheHit bool
	Error    string
	PanicVal string
	Stack    string

	// Metrics is the service's scalar metric snapshot taken the moment
	// the job reached its terminal state — queue depth, running jobs,
	// cache traffic — so a job record carries the operational context it
	// finished under.
	Metrics map[string]float64

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	result []byte
	events []ProgressEvent

	scenarios []*scenario.Scenario // what Validate resolved
	cancel    context.CancelFunc   // set while running
	canceled  bool                 // client asked for cancellation
}

// JobView is the JSON shape of GET /jobs/{id}.
type JobView struct {
	ID          string          `json:"id"`
	Spec        JobSpec         `json:"spec"`
	State       string          `json:"state"`
	Retries     int             `json:"retries"`
	CacheHit    bool            `json:"cache_hit"`
	Error       string          `json:"error,omitempty"`
	Panic       string          `json:"panic,omitempty"`
	Stack       string          `json:"stack,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Events      []ProgressEvent `json:"events,omitempty"`

	// Metrics is the scalar metric snapshot attached when the job
	// finished (terminal states only).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// view snapshots the job for JSON encoding. Caller holds the server
// mutex.
func (j *Job) view(withEvents bool) JobView {
	v := JobView{
		ID: j.ID, Spec: j.Spec, State: j.State, Retries: j.Retries,
		CacheHit: j.CacheHit, Error: j.Error, Panic: j.PanicVal, Stack: j.Stack,
		SubmittedAt: j.SubmittedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
	}
	if withEvents {
		v.Events = append([]ProgressEvent(nil), j.events...)
		if j.Metrics != nil {
			v.Metrics = make(map[string]float64, len(j.Metrics))
			for k, val := range j.Metrics {
				v.Metrics[k] = val
			}
		}
	}
	return v
}

// sortViews orders job views newest-submission-first with ID as the
// tie-break, for the list endpoint.
func sortViews(vs []JobView) {
	sort.Slice(vs, func(i, k int) bool {
		if !vs[i].SubmittedAt.Equal(vs[k].SubmittedAt) {
			return vs[i].SubmittedAt.After(vs[k].SubmittedAt)
		}
		return vs[i].ID < vs[k].ID
	})
}
