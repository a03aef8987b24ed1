// Package scenario makes experiments data: a declarative .scenario
// file names everything one measurement run depends on — application,
// machine configuration, weak-scale factor, fault plan, kernel seed,
// cycle budget — plus the metrics to extract from it, and the runner
// (cmd/cedarbench) turns a directory of them into a canonical
// BENCH_scenarios.json capture that is committed and diffed against
// the previous run with per-metric gates (internal/benchcmp).
//
// The paper's contribution is a measurement methodology, not a single
// number, so the repo's perf and correctness trajectory should live in
// repeatable experiment definitions rather than hand-wired Go: the
// layout follows elastic-package's _dev/benchmark/rally/<scenario>.yml
// one-file-per-scenario corpus and rancher/fleet's named-experiment
// benchmark suite, including the compare-against-prior-run step
// elastic-package itself lists as TODO.
//
// # File format
//
// A .scenario file is a strict YAML subset, hand-parsed so the repo
// takes no dependency: full-line # comments, `key: value` scalars, and
// one list key (`metrics:`) whose items follow as `- item` lines.
//
//	# FLO52 under the PR-4 page-fault kill schedule.
//	name: flo52-8proc-pgflt-kill
//	app: FLO52
//	config: 8proc
//	steps: 1
//	seed: 3327910339796038169
//	plan: ce:1@76414
//	max_cycles: 0
//	parallel: 1
//	metrics:
//	  - ct_cycles
//	  - os_breakdown
//	  - events
//	  - sim_events_per_sec
//
// Every field except app and config is optional. `scale: auto` (the
// default) weak-scales the app by perfect.ScaleFactorFor of the
// configuration's CE count — 1 on paper machines, the CE ratio on
// scaled members — and an integer pins the factor explicitly. Metrics
// default to DefaultMetrics. `expect: ok|deadlock|error` (default ok)
// declares how the run must end; a scenario that is expected to fail
// is a regression pin (testdata/faultcorpus/), not a measurement.
//
// # One-line form
//
// A scenario whose app has a single-line source also renders as one
// line, for logs, cedarsim -replay and serve replay/corpus jobs:
//
//	app=FLO52 config=8proc steps=1 seed=12345 plan=ce:1@76414 expect=deadlock
//
// The key order is fixed; scale=N appears only when the resolved
// factor is not 1, max_cycles=N only when set, and expect= only when
// it is not ok. A line without scale= runs unscaled. Line and
// ParseLine are inverses, and so are Document and Parse. Because the
// simulation kernel is deterministic in virtual time, re-running a
// scenario reproduces the original run bit for bit.
package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"

	// Scenario documents may name their app as a gen: spec (app: or an
	// inline workload: block); linking the generator installs the
	// perfect.RegisterGen hook for every scenario consumer (cedarbench,
	// cedarserved) in one place.
	_ "repro/internal/perfect/gen"
)

// Ext is the file extension scenario files use.
const Ext = ".scenario"

// Metric names a scenario may extract. os_breakdown expands to one
// record per OS activity category (the Table-2 overhead decomposition
// rows); the others are single records.
const (
	// MetricCT is the completion time in cycles (deterministic, exact).
	MetricCT = "ct_cycles"
	// MetricOSBreakdown expands to the Table-2 rows: per-category OS
	// time in cycles (deterministic, exact).
	MetricOSBreakdown = "os_breakdown"
	// MetricConcurrency is the Table-1 machine concurrency
	// (deterministic, exact).
	MetricConcurrency = "concurrency"
	// MetricEvents is the kernel's dispatched-event count
	// (deterministic, exact).
	MetricEvents = "events"
	// MetricSimEventsPerSec is kernel events per simulated second —
	// event density over virtual time, a deterministic proxy for how
	// hard the machine model works per modeled second.
	MetricSimEventsPerSec = "sim_events_per_sec"
	// MetricWallEventsPerSec is kernel events per wall-clock second —
	// the real throughput trend line. Nondeterministic, so it is only
	// recorded when the runner opts in (cedarbench -wallclock), gated
	// with a tolerance instead of exactly, and never part of the
	// committed byte-identical capture.
	MetricWallEventsPerSec = "wall_events_per_sec"
)

// DefaultMetrics is the extraction set when a scenario names none:
// every deterministic default, so a default capture is byte-identical
// run to run.
func DefaultMetrics() []string {
	return []string{MetricCT, MetricOSBreakdown, MetricEvents, MetricSimEventsPerSec}
}

// knownMetrics validates the metrics list.
var knownMetrics = map[string]bool{
	MetricCT: true, MetricOSBreakdown: true, MetricConcurrency: true,
	MetricEvents: true, MetricSimEventsPerSec: true, MetricWallEventsPerSec: true,
}

// ScaleAuto is the Scale sentinel for perfect.ScaleFactorFor.
const ScaleAuto = 0

// Pathology classes a promoted scenario may declare (pathology: key):
// the workload-space fuzzer (cedarfuzz -apps) re-detects each promoted
// scenario's declared pathology as its regression gate.
const (
	PathologyHotSpot       = "hotspot"
	PathologyBarrierConvoy = "barrier-convoy"
	PathologyPageStorm     = "page-storm"
)

// knownPathologies validates the pathology: key.
var knownPathologies = map[string]bool{
	PathologyHotSpot: true, PathologyBarrierConvoy: true, PathologyPageStorm: true,
}

// Outcomes a scenario can declare (expect: key, expect= field) and
// that Outcome classifies a run into. The empty string means ExpectOK.
const (
	ExpectOK       = "ok"       // the run must complete without error
	ExpectDeadlock = "deadlock" // the run must stop with sim.ErrDeadlock
	ExpectError    = "error"    // the run must fail (any simulation error)
)

// parseExpect validates an expect value.
func parseExpect(val string) (string, error) {
	switch val {
	case ExpectOK, ExpectDeadlock, ExpectError:
		return val, nil
	}
	return "", fmt.Errorf("unknown expectation %q (want %s, %s, or %s)",
		val, ExpectOK, ExpectDeadlock, ExpectError)
}

// Scenario is one parsed experiment definition.
type Scenario struct {
	// Name identifies the scenario in captures and reports. Defaults to
	// the file's base name without Ext.
	Name string
	// App is the application source: a registry name ("FLO52") or a
	// gen: spec. Exactly one of App and Workload must be set.
	App string
	// Workload is an inline workload document (the workload: block) or
	// a single-line gen: spec — any perfect.Resolver source except a
	// file path, so a scenario document stays self-contained and safe
	// to accept over the network (cedarserved bench jobs).
	Workload string
	// Pathology declares which pathology class this scenario was
	// promoted for ("" = none); see the Pathology constants.
	Pathology string
	// Config is the machine family member name (arch.FamilyByName).
	Config string
	// Steps overrides the app's timestep count when > 0.
	Steps int
	// Scale is the weak-scale factor; ScaleAuto (the default) derives
	// it from the configuration's CE count.
	Scale int
	// Seed overrides the deterministic kernel seed when non-zero.
	Seed int64
	// Plan is the fault plan (empty = healthy run).
	Plan faults.Plan
	// Parallel bounds intra-run batch parallelism (cedar.Options.Parallel).
	Parallel int
	// MaxCycles aborts the run past this virtual time (0 = unlimited).
	MaxCycles int64
	// Expect declares how the run must end: ExpectOK (the default when
	// empty), ExpectDeadlock, or ExpectError.
	Expect string
	// Metrics is the extraction set (DefaultMetrics when empty).
	Metrics []string
	// WallTol is the tolerance for MetricWallEventsPerSec (default 0.5).
	WallTol float64
	// File is the source path, for error messages ("" when parsed from
	// memory, e.g. a bench service job).
	File string

	// app and cfg are resolved once by Validate; Resolve and the
	// accessors below reuse them instead of re-querying the registries.
	app perfect.App
	cfg arch.Config
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Resolve returns the weak-scaled app and configuration the scenario
// runs. Both were resolved and validated at parse time; only the
// weak-scale transform is applied here.
func (sc *Scenario) Resolve() (perfect.App, arch.Config, error) {
	if sc.app.Name == "" {
		return perfect.App{}, arch.Config{}, fmt.Errorf("scenario %s: not validated (use Parse or Validate)", sc.Name)
	}
	return sc.app.Scaled(sc.ScaleFactor()), sc.cfg, nil
}

// AppName returns the resolved app's name — the App field for
// registry-named scenarios, the document's workload name otherwise.
func (sc *Scenario) AppName() string {
	if sc.app.Name != "" {
		return sc.app.Name
	}
	return sc.App
}

// Expectation returns the declared outcome, defaulting to ExpectOK.
func (sc *Scenario) Expectation() string {
	if sc.Expect == "" {
		return ExpectOK
	}
	return sc.Expect
}

// ScaleFactor returns the resolved weak-scale factor.
func (sc *Scenario) ScaleFactor() int {
	if sc.Scale != ScaleAuto {
		return sc.Scale
	}
	if sc.cfg.Name != "" {
		return perfect.ScaleFactorFor(sc.cfg.CEs())
	}
	if cfg, ok := arch.FamilyByName(sc.Config); ok {
		return perfect.ScaleFactorFor(cfg.CEs())
	}
	return 1
}

// metricSet returns the effective extraction set: the declared metrics
// (or DefaultMetrics), plus MetricWallEventsPerSec when wallclock is
// on and the set lacks it.
func (sc *Scenario) metricSet(wallclock bool) []string {
	ms := sc.Metrics
	if len(ms) == 0 {
		ms = DefaultMetrics()
	}
	if wallclock {
		seen := false
		for _, m := range ms {
			if m == MetricWallEventsPerSec {
				seen = true
			}
		}
		if !seen {
			ms = append(append([]string(nil), ms...), MetricWallEventsPerSec)
		}
	}
	return ms
}

// Parse parses one scenario document. fallbackName names the scenario
// when the document has no name: key (callers pass the file's base
// name, or a job id). Parsing resolves the app, configuration, and
// fault plan against the live registries so a bad scenario is rejected
// before anything runs.
func Parse(fallbackName string, data []byte) (*Scenario, error) {
	sc := &Scenario{Name: fallbackName, Scale: ScaleAuto, WallTol: 0.5}
	var listKey string   // non-empty while consuming "- item" lines
	var wlBlock bool     // consuming the workload: block's indented lines
	var wlLines []string // the block's lines, dedented
	seen := map[string]bool{}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if wlBlock && strings.HasPrefix(line, "  ") {
			// Workload block content: strip exactly the block's two-space
			// indent, keeping the document's own phase indentation.
			wlLines = append(wlLines, line[2:])
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		wlBlock = false
		if item, ok := strings.CutPrefix(trimmed, "- "); ok {
			if listKey == "" {
				return nil, fmt.Errorf("scenario line %d: list item %q outside a list key", lineNo, trimmed)
			}
			item = strings.TrimSpace(item)
			if !knownMetrics[item] {
				return nil, fmt.Errorf("scenario line %d: unknown metric %q (want %s)",
					lineNo, item, strings.Join(metricNames(), ", "))
			}
			sc.Metrics = append(sc.Metrics, item)
			continue
		}
		// A scalar or list-opening key ends any open list.
		listKey = ""
		if line != trimmed {
			return nil, fmt.Errorf("scenario line %d: unexpected indentation (only list items indent)", lineNo)
		}
		key, val, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("scenario line %d: %q is not key: value", lineNo, trimmed)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("scenario line %d: duplicate key %q", lineNo, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "name":
			sc.Name = val
		case "app":
			sc.App = val
		case "workload":
			if val != "" {
				// Single-line source (a gen: spec); an empty value opens
				// the indented document block instead.
				sc.Workload = val
			} else {
				wlBlock = true
			}
		case "pathology":
			if !knownPathologies[val] {
				err = fmt.Errorf("unknown pathology %q (want %s, %s, or %s)",
					val, PathologyHotSpot, PathologyBarrierConvoy, PathologyPageStorm)
			}
			sc.Pathology = val
		case "parallel":
			sc.Parallel, err = nonNegInt(val)
		case "wall_tol":
			sc.WallTol, err = strconv.ParseFloat(val, 64)
			if err == nil && (sc.WallTol < 0 || sc.WallTol >= 1) {
				err = fmt.Errorf("wall_tol %v out of range [0,1)", sc.WallTol)
			}
		case "metrics":
			if val != "" {
				return nil, fmt.Errorf("scenario line %d: metrics takes - item lines, not an inline value", lineNo)
			}
			listKey = key
		default:
			if known, ferr := sc.setField(key, val); known {
				err = ferr
			} else {
				err = fmt.Errorf("unknown key %q", key)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scenario line %d: %s: %v", lineNo, key, err)
		}
	}
	if len(wlLines) > 0 {
		if sc.Workload != "" {
			return nil, fmt.Errorf("scenario: workload has both an inline value and a block")
		}
		sc.Workload = strings.Join(wlLines, "\n") + "\n"
	}
	return sc, sc.Validate()
}

// setField parses one of the keys both text forms share; known is
// false for any other key. An empty plan is a healthy run.
func (sc *Scenario) setField(key, val string) (known bool, err error) {
	switch key {
	case "app":
		sc.App = val
	case "config":
		sc.Config = val
	case "steps":
		sc.Steps, err = nonNegInt(val)
	case "scale":
		if val == "auto" {
			sc.Scale = ScaleAuto
		} else {
			sc.Scale, err = nonNegInt(val)
			if err == nil && sc.Scale < 1 {
				err = fmt.Errorf("scale %d must be >= 1 (or auto)", sc.Scale)
			}
		}
	case "seed":
		sc.Seed, err = strconv.ParseInt(val, 10, 64)
	case "plan":
		sc.Plan = nil
		if val != "" {
			sc.Plan, err = faults.Parse(val)
		}
	case "max_cycles":
		var v int
		v, err = nonNegInt(val)
		sc.MaxCycles = int64(v)
	case "expect":
		sc.Expect, err = parseExpect(val)
	default:
		return false, nil
	}
	return true, err
}

// lineName names every scenario parsed from a line: the one-line form
// carries a run, not a named experiment.
const lineName = "line"

// ParseLine parses a scenario's one-line form: whitespace-separated
// key=value fields in any order, with the keys and values a document
// takes for app, config, steps, scale, seed, plan, max_cycles and
// expect. app, config and plan are required; a missing scale= means 1,
// and the scenario is validated like a parsed document.
func ParseLine(line string) (*Scenario, error) {
	sc := &Scenario{Name: lineName, Scale: 1, WallTol: 0.5}
	hasPlan := false
	for _, field := range strings.Fields(line) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("scenario line: field %q is not key=value", field)
		}
		known, err := sc.setField(key, val)
		if !known {
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return nil, fmt.Errorf("scenario line: field %q: %w", field, err)
		}
		hasPlan = hasPlan || key == "plan"
	}
	switch {
	case sc.App == "":
		return nil, fmt.Errorf("scenario line %q: missing app=", line)
	case sc.Config == "":
		return nil, fmt.Errorf("scenario line %q: missing config=", line)
	case !hasPlan:
		return nil, fmt.Errorf("scenario line %q: missing plan=", line)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Line renders the scenario's canonical one-line form (see the package
// comment). A scenario whose app has no single-line source — an inline
// workload document — has none: rendering it would replay a different
// run, so Line returns an error instead.
func (sc *Scenario) Line() (string, error) {
	src := sc.App
	if src == "" {
		src = sc.Workload
	}
	if src == "" || strings.IndexFunc(src, unicode.IsSpace) >= 0 {
		return "", fmt.Errorf("scenario %s: its workload has no one-line form", sc.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "app=%s config=%s steps=%d seed=%d plan=%s",
		src, sc.Config, sc.Steps, sc.Seed, sc.Plan)
	if f := sc.ScaleFactor(); f != 1 {
		fmt.Fprintf(&b, " scale=%d", f)
	}
	if sc.MaxCycles != 0 {
		fmt.Fprintf(&b, " max_cycles=%d", sc.MaxCycles)
	}
	if e := sc.Expectation(); e != ExpectOK {
		fmt.Fprintf(&b, " expect=%s", e)
	}
	return b.String(), nil
}

// String labels the scenario in logs and error messages: its name, or
// the line itself for a scenario parsed from one.
func (sc *Scenario) String() string {
	if sc.Name == lineName {
		if line, err := sc.Line(); err == nil {
			return line
		}
	}
	return sc.Name
}

// Document renders the scenario as a .scenario document that Parse
// reads back to the same scenario: the comment's lines as # lines,
// then every set field in a fixed key order, the workload block last.
func (sc *Scenario) Document(comment string) []byte {
	var b bytes.Buffer
	if comment != "" {
		for _, l := range strings.Split(comment, "\n") {
			fmt.Fprintf(&b, "# %s\n", l)
		}
	}
	kv := func(key string, val any) { fmt.Fprintf(&b, "%s: %v\n", key, val) }
	kv("name", sc.Name)
	if sc.App != "" {
		kv("app", sc.App)
	}
	kv("config", sc.Config)
	if sc.Steps != 0 {
		kv("steps", sc.Steps)
	}
	if sc.Scale != ScaleAuto {
		kv("scale", sc.Scale)
	}
	if sc.Seed != 0 {
		kv("seed", sc.Seed)
	}
	if len(sc.Plan) > 0 {
		kv("plan", sc.Plan)
	}
	if sc.Parallel != 0 {
		kv("parallel", sc.Parallel)
	}
	if sc.MaxCycles != 0 {
		kv("max_cycles", sc.MaxCycles)
	}
	if e := sc.Expectation(); e != ExpectOK {
		kv("expect", e)
	}
	if sc.Pathology != "" {
		kv("pathology", sc.Pathology)
	}
	if sc.WallTol != 0.5 {
		kv("wall_tol", strconv.FormatFloat(sc.WallTol, 'g', -1, 64))
	}
	if len(sc.Metrics) > 0 {
		b.WriteString("metrics:\n")
		for _, m := range sc.Metrics {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	switch {
	case strings.Contains(sc.Workload, "\n"):
		b.WriteString("workload:\n")
		for _, l := range strings.Split(strings.TrimRight(sc.Workload, "\n"), "\n") {
			if l != "" {
				b.WriteString("  ")
				b.WriteString(l)
			}
			b.WriteByte('\n')
		}
	case sc.Workload != "":
		kv("workload", sc.Workload)
	}
	return b.Bytes()
}

// WithPlan returns a copy of the scenario that runs plan instead,
// validated against the scenario's configuration.
func (sc *Scenario) WithPlan(plan faults.Plan) (*Scenario, error) {
	if err := plan.Validate(sc.cfg); err != nil {
		return nil, fmt.Errorf("scenario %s: plan: %w", sc.Name, err)
	}
	c := *sc
	c.Plan = plan
	return &c, nil
}

// FromRun returns the scenario that re-runs one cedar run bit for bit:
// source on cfg under opts, unscaled, with the kernel seed resolved
// (so the scenario keeps reproducing the run even if the default seed
// derivation changes) and expect the outcome to declare. source is the
// app's single-line source (a registry name or gen: spec) or its
// workload document text, which the scenario carries as a workload:
// block. A run the scenario cannot describe — a custom machine, or
// options it has no key for — is an error, never a scenario that
// would replay something else.
func FromRun(name, source string, cfg arch.Config, opts cedar.Options, expect string) (*Scenario, error) {
	if fam, ok := arch.FamilyByName(cfg.Name); !ok || fam != cfg {
		return nil, fmt.Errorf("scenario %s: configuration %s is not a named family member", name, cfg.Name)
	}
	if opts.XdoallChunk > 1 || opts.TreeFanout > 1 || opts.Costs != nil ||
		opts.SamplerInterval != 0 || opts.WatchdogInterval != 0 {
		return nil, fmt.Errorf("scenario %s: chunking, tree barriers, cost, sampler and watchdog overrides have no scenario key", name)
	}
	sc := &Scenario{Name: name, Config: cfg.Name, Steps: opts.Steps, Scale: 1,
		Plan: opts.Faults, MaxCycles: int64(opts.MaxCycles), WallTol: 0.5}
	if expect != ExpectOK {
		sc.Expect = expect
	}
	if strings.Contains(source, "\n") {
		sc.Workload = source
	} else {
		sc.App = source
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc.Seed = opts.KernelSeed(sc.app, cfg)
	return sc, nil
}

func nonNegInt(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}

func metricNames() []string {
	names := make([]string, 0, len(knownMetrics))
	for n := range knownMetrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks the scenario against the live registries, resolving
// the app and configuration exactly once (Resolve reuses them). Parse
// and ParseLine call it; a scenario built in code must too.
func (sc *Scenario) Validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("scenario missing name")
	case !nameRE.MatchString(sc.Name):
		return fmt.Errorf("scenario name %q: want %s", sc.Name, nameRE)
	case sc.App == "" && sc.Workload == "":
		return fmt.Errorf("scenario %s: missing app (or workload)", sc.Name)
	case sc.App != "" && sc.Workload != "":
		return fmt.Errorf("scenario %s: app and workload are mutually exclusive", sc.Name)
	case sc.Config == "":
		return fmt.Errorf("scenario %s: missing config", sc.Name)
	}
	src := sc.App
	if sc.Workload != "" {
		src = sc.Workload
	}
	// No file sources: a scenario document travels (bench service
	// jobs), so it must stay self-contained.
	app, err := (perfect.Resolver{}).Resolve(src)
	if err != nil {
		key := "app"
		if sc.Workload != "" {
			key = "workload"
		}
		return fmt.Errorf("scenario %s: %s: %w", sc.Name, key, err)
	}
	sc.app = app
	cfg, ok := arch.FamilyByName(sc.Config)
	if !ok {
		return fmt.Errorf("scenario %s: unknown configuration %q", sc.Name, sc.Config)
	}
	sc.cfg = cfg
	if err := sc.Plan.Validate(cfg); err != nil {
		return fmt.Errorf("scenario %s: plan: %w", sc.Name, err)
	}
	return nil
}

// LoadFile parses one .scenario file, defaulting the name to the file's
// base name.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stem := strings.TrimSuffix(filepath.Base(path), Ext)
	sc, err := Parse(stem, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.File = path
	return sc, nil
}

// LoadDir loads every *.scenario file under dir, sorted by scenario
// name. Duplicate names are an error — the capture keys on them. An
// empty directory is an error too: a suite that gates zero scenarios
// proves nothing.
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		return nil, fmt.Errorf("scenario dir %s: %w", dir, err)
	}
	sort.Strings(paths)
	var out []*Scenario
	byName := map[string]string{}
	for _, path := range paths {
		sc, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[sc.Name]; dup {
			return nil, fmt.Errorf("scenario name %q appears in both %s and %s", sc.Name, prev, path)
		}
		byName[sc.Name] = path
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario dir %s: no *%s files", dir, Ext)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
