// Command cedarsim runs one scenario with full instrumentation and
// prints the complete measurement report: completion time,
// speedup-relevant statistics, the completion-time breakdown, the
// user-time breakdown per task, the detailed OS overhead table, and the
// contention estimate (when the 1-processor baseline is also run).
//
// Usage:
//
//	cedarsim [flags] SCENARIO
//	cedarsim -list-apps | -list-configs
//
// SCENARIO is the one description of the run (see internal/scenario):
// a path ending in .scenario, loaded as a document, or the one-line
// form, for example
//
//	cedarsim 'app=FLO52 config=8proc steps=2 plan='
//	cedarsim -statfx 'app=OCEAN config=8proc steps=2 plan=ce:1@76414'
//	cedarsim -no-baseline testdata/scenarios/flo52-scaled64.scenario
//
// The scenario names the application (a registry name, see -list-apps,
// a gen: spec, or an inline workload document), the machine (a named
// family member, see -list-configs), the steps, weak-scale factor,
// kernel seed, fault plan and cycle budget. A line without scale= runs
// unscaled; a document's scale defaults to auto. The flags choose only
// what is printed or exported, and come before the scenario.
//
// A healthy scenario prints the report. A scenario with a fault plan
// is run healthy and degraded instead, and a baseline-vs-degraded
// overhead-decomposition delta table is printed. Independent
// simulations within one invocation — the measured run and its
// 1-processor baseline, the healthy/degraded pair, the two runs of a
// -replay — execute through the deterministic parallel engine;
// -parallel bounds the worker count (default GOMAXPROCS, 1 forces
// sequential). Each simulation owns its kernel and seed, so the printed
// report is identical at any setting. The scenario's cycle budget, if
// any, bounds every one of them.
//
// -record-scenario writes the report's scenario as a new document
// (named after the file, its seed pinned to the one the run used,
// expect: set to the observed outcome) and refuses to overwrite an
// existing file.
// -replay runs the scenario twice, bit-identically, and verifies its
// expectation. The simulation is deterministic in virtual time, so a
// recorded scenario is a complete, stable reproduction of its run.
// cedarbench -run NAME prints a scenario's record capture.
//
// -statfx prints only the run's canonical statfx accounting block
// (Run.StatfxText). -server submits the scenario to a running
// cedarserved instance (see cmd/cedarserved) as a simulate job and
// prints the job's result — byte-identical to the -statfx output. A
// single-line app source travels as the job's app, an inline workload
// document as its workload; the service runs unscaled scenarios that
// are expected to complete, and -server refuses any other.
//
// The observability flags arm the obs layer: -trace writes a
// Chrome/Perfetto trace-event file (load it at ui.perfetto.dev),
// -profile writes folded stacks weighted by virtual cycles (feed to
// flamegraph.pl or inferno), and -series writes the sampled time
// series as CSV, or as Prometheus text exposition when the path ends
// in .prom. With a fault plan they export the degraded run. -metrics
// writes the run's full metric registry snapshot — the same source of
// truth StatfxText and cedarserved's /metrics render — in the format
// the extension selects (.prom, .json, or CSV); unlike the other three
// it works without arming the obs layer. Whenever a bounded
// instrumentation buffer overflowed, a one-line warning on stderr
// reports the total dropped-event count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/profio"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// printConfigs lists every named member of the machine family with its
// topology (the -list-configs output).
func printConfigs() {
	fmt.Printf("%-10s %5s %9s %5s %8s %7s %7s\n",
		"name", "CEs", "clusters", "CE/cl", "GM mods", "stages", "degree")
	for _, c := range arch.Families() {
		note := ""
		if c.Unclustered {
			note = "  (unclustered)"
		}
		fmt.Printf("%-10s %5d %9d %5d %8d %7d %7d%s\n",
			c.Name, c.CEs(), c.Clusters, c.CEsPerCluster,
			c.GMModules, c.NetStages, c.SwitchDegree, note)
	}
}

// printApps lists the built-in application registry — the names a
// scenario's app accepts (the -list-apps output).
func printApps() {
	fmt.Printf("%-12s %6s %7s %11s %12s\n",
		"name", "steps", "phases", "iterations", "data words")
	for _, a := range perfect.Registry() {
		fmt.Printf("%-12s %6d %7d %11d %12d\n",
			a.Name, a.Steps, len(a.Phases), a.TotalIterations(), a.DataWords)
	}
}

// usageErr prints the message plus flag usage and exits with status 2
// (bad invocation).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cedarsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	listApps := flag.Bool("list-apps", false, "print the built-in application registry and exit")
	listConfigs := flag.Bool("list-configs", false, "print all named machine configurations and exit")
	noBase := flag.Bool("no-baseline", false, "skip the 1-processor baseline (no contention estimate)")
	replay := flag.Bool("replay", false, "run the scenario twice, bit-identically, and verify its expected outcome")
	recordPath := flag.String("record-scenario", "", "record the run as a new scenario document at this path (seed pinned, expect: the observed outcome)")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file")
	profilePath := flag.String("profile", "", "write a folded-stack profile weighted by virtual cycles")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the simulator process (wall-clock, not virtual cycles)")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile at exit")
	seriesPath := flag.String("series", "", "write the sampled time series (CSV, or Prometheus text if *.prom)")
	metricsPath := flag.String("metrics", "", "write the run's metric registry snapshot (Prometheus text if *.prom, JSON if *.json, CSV otherwise)")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	serverURL := flag.String("server", "", "submit the scenario to a cedarserved instance at this URL and print its canonical statfx result")
	statfx := flag.Bool("statfx", false, "print only the canonical statfx accounting block (byte-diffable against a -server run)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: cedarsim [flags] SCENARIO\n\n"+
			"SCENARIO is a .scenario file or a one-line scenario, e.g.\n"+
			"  'app=FLO52 config=8proc steps=2 plan='\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listConfigs {
		printConfigs()
		return
	}
	if *listApps {
		printApps()
		return
	}
	if flag.NArg() != 1 {
		usageErr("want one scenario argument, got %d", flag.NArg())
	}
	sc, err := scenario.Load(flag.Arg(0))
	if err != nil {
		usageErr("%v", err)
	}
	if *recordPath != "" {
		if *serverURL != "" || *replay || *statfx {
			usageErr("-record-scenario records the report's run, not a -server, -replay or -statfx one")
		}
		if _, err := os.Stat(*recordPath); err == nil {
			usageErr("-record-scenario %s already exists", *recordPath)
		}
	}
	stopProf, err := profio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: profile: %v\n", err)
		}
	}()

	switch {
	case *serverURL != "":
		runRemote(*serverURL, sc)
		return
	case *replay:
		runReplay(sc, *parallel)
		return
	}
	app, cfg, err := sc.Resolve()
	if err != nil {
		usageErr("%v", err)
	}
	opts := sc.Options()
	opts.Parallel = *parallel
	// -statfx and -server print the canonical statfx block and nothing
	// else, so a local and a remote run of the same scenario diff
	// byte-for-byte.
	if *statfx {
		runStatfx(app, cfg, opts, exporter{metrics: *metricsPath})
		return
	}

	exp := exporter{trace: *tracePath, profile: *profilePath, series: *seriesPath, metrics: *metricsPath}
	if exp.enabled() {
		// Arm the obs layer; the trace export also needs the hpm
		// monitor for runtime-structure spans. Neither changes results.
		opts.Observe = &obs.Options{}
		if exp.trace != "" {
			opts.TraceCapacity = 1 << 22
		}
	}

	if len(opts.Faults) > 0 {
		runFaulted(sc, app, cfg, opts, *recordPath, exp)
		return
	}

	// The measured run and the 1-processor baseline are independent
	// simulations; run them through the engine pool.
	var runX, baseRun *cedar.Run
	var errX, errBase error
	jobs := []func(){
		func() { runX, errX = cedar.SimulateRunErr(app, cfg, opts) },
	}
	if !*noBase && cfg.CEs() > 1 {
		jobs = append(jobs, func() { baseRun, errBase = cedar.SimulateRunErr(app, arch.Cedar1, opts) })
	}
	engine.Do(*parallel, jobs...)
	record(*recordPath, sc, errX)
	if err := errors.Join(errX, errBase); err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	var base *core.Result
	if baseRun != nil {
		base = baseRun.Result
	}
	res := runX.Result
	exp.write(runX)

	if base != nil {
		// Normalize both to the paper's CT1 for readable seconds.
		if paper := perfect.PaperCT1(app.Name); paper > 0 {
			scale := paper / arch.Seconds(int64(base.CT))
			base.Scale, res.Scale = scale, scale
		}
	}

	fmt.Printf("%s on %s (%d CEs, %d clusters)\n", app.Name, cfg.Name, cfg.CEs(), cfg.Clusters)
	fmt.Printf("completion time: %.1f s (%.0f cycles)\n", res.CTSeconds(), float64(res.CT))
	if base != nil {
		fmt.Printf("speedup over 1 processor: %.2f\n", res.Speedup(base))
	}
	fmt.Printf("average concurrency: %.2f (sampled: %.2f)\n",
		res.MachineConcurrency(), res.SampledConcurrency)
	fmt.Printf("OS share of CT (machine average): %.1f%%\n\n", res.OSShare()*100)

	fmt.Println("Completion-time breakdown per cluster task (Figure 3 view):")
	for c := 0; c < cfg.Clusters; c++ {
		b := res.ClusterBreakdown(c)
		fmt.Printf("  cluster %d: user %.1f%%  system %.1f%%  interrupt %.1f%%  spin %.2f%%\n",
			c, b.User*100, b.System*100, b.Interrupt*100, b.Spin*100)
	}
	fmt.Println()

	fmt.Println("User-time breakdown per task (Figures 4-9 view, % of CT):")
	for _, t := range res.Tasks() {
		name := "main"
		if !t.IsMain {
			name = fmt.Sprintf("helper%d", t.Cluster)
		}
		fmt.Printf("  %-8s serial %.1f  mc %.1f  iters %.1f  setup %.1f  pick %.1f  barrier %.1f  hwait %.1f  | overhead %.1f\n",
			name, t.Serial*100, t.MCLoop*100, t.Iter*100,
			t.Setup*100, t.Pick*100, t.Barrier*100, t.HelperWait*100,
			t.OverheadFraction()*100)
	}
	fmt.Println()

	fmt.Println("Detailed OS overheads (Table 2 view, per-CE average):")
	for _, row := range res.OSDetail() {
		fmt.Printf("  %-16s %8.2f s  %5.2f%%  (%d events)\n",
			row.Category, row.Seconds, row.Percent, row.Count)
	}
	fmt.Println()

	pf := make([]float64, cfg.Clusters)
	for c := range pf {
		pf[c] = res.ParallelFraction(c)
	}
	fmt.Printf("parallel fraction per cluster: %.3f\n", pf)
	fmt.Printf("parallel loop concurrency per cluster (Table 3): %.2f\n", res.ParallelLoopConcurrency())

	if base != nil {
		cont, err := core.ContentionOverhead(base, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "contention estimate failed: %v\n", err)
		} else {
			fmt.Printf("\nGM & network contention (Table 4 view):\n")
			fmt.Printf("  Tp_actual %.0f s   Tp_ideal %.0f s   Ov_cont %.1f%% of CT\n",
				res.Seconds(cont.TpActual), res.Seconds(cont.TpIdeal), cont.OvCont)
		}
	}

	var spin float64
	for _, a := range res.Accounts {
		spin += float64(a.Get(metrics.CatOSSpin))
	}
	fmt.Printf("\nkernel lock spin (machine total): %.3f%% of CT x CEs\n",
		spin/float64(int64(res.CT)*int64(cfg.CEs()))*100)
}

// exporter writes the observability outputs of a run to the paths the
// flags selected (empty paths are skipped).
type exporter struct {
	trace, profile, series, metrics string
}

// enabled reports whether a flag needs the obs layer armed. -metrics
// alone does not: the registry also covers unobserved runs.
func (e exporter) enabled() bool { return e.trace != "" || e.profile != "" || e.series != "" }

// write exports the run's trace, profile, series, and metric registry
// files, then checks the run's drop counters. Export failures are
// fatal: an invocation that asked for an artifact and cannot produce
// it should not exit 0.
func (e exporter) write(run *cedar.Run) {
	if e.trace != "" {
		e.toFile(e.trace, func(f *os.File) error {
			return obs.WriteTrace(f, run.TraceBundle())
		})
	}
	if e.profile != "" {
		e.toFile(e.profile, func(f *os.File) error {
			return obs.WriteFolded(f, run.Result.App, run.Result.CT, run.Machine.Accounts())
		})
	}
	if e.series != "" {
		e.toFile(e.series, func(f *os.File) error {
			if strings.HasSuffix(e.series, ".prom") {
				return obs.WriteProm(f, run.Series, map[string]string{
					"app": run.Result.App, "config": run.Machine.Cfg.Name,
				})
			}
			return obs.WriteCSV(f, run.Series)
		})
	}
	if e.metrics != "" {
		snap := run.Metrics().Snapshot()
		e.toFile(e.metrics, func(f *os.File) error {
			switch {
			case strings.HasSuffix(e.metrics, ".prom"):
				return metricreg.WriteProm(f, snap, map[string]string{
					"app": run.Result.App, "config": run.Machine.Cfg.Name,
				})
			case strings.HasSuffix(e.metrics, ".json"):
				return metricreg.WriteJSON(f, snap)
			default:
				return metricreg.WriteCSV(f, snap)
			}
		})
	}
	warnDropped(run)
}

// warnDroppedOnce keeps the drop warning to one line per invocation
// even when several runs (baseline, degraded) dropped events.
var warnDroppedOnce sync.Once

// warnDropped warns on stderr when a run's bounded instrumentation
// buffers overflowed — silent drops would skew any fold over the trace
// (the Figure 4 decompositions). Stderr keeps -statfx stdout
// byte-identical.
func warnDropped(run *cedar.Run) {
	n := run.DroppedEvents()
	if n == 0 {
		return
	}
	warnDroppedOnce.Do(func() {
		fmt.Fprintf(os.Stderr,
			"cedarsim: warning: %d instrumentation event(s) dropped (trace or series buffer full); raise the trace capacity or series capacity before trusting trace folds\n", n)
	})
}

func (e exporter) toFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	werr := fn(f)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: writing %s: %v\n", path, werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: wrote %s\n", path)
}

// runReplay re-runs the scenario twice for bit-identity and verifies
// its declared expectation. Exit status 1 when it misses.
func runReplay(sc *scenario.Scenario, parallel int) {
	r := scenario.Replay([]*scenario.Scenario{sc}, parallel)[0]
	where := sc.File
	if where == "" {
		where = "command line"
	}
	label, err := sc.Line()
	if err != nil {
		label = sc.Name // an inline workload has no one-line form
	}
	fmt.Printf("replay %s\n  %s\n", where, label)
	switch {
	case r.Err != nil:
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", r.Err)
		os.Exit(1)
	case sc.Expectation() == scenario.ExpectOK:
		fmt.Printf("  outcome: ok (ct=%d, seq faults=%d, conc faults=%d)\n",
			int64(r.Run.Result.CT), r.Run.OS.SeqFaults(), r.Run.OS.ConcFaults())
	default:
		fmt.Printf("  outcome: %s, as expected\n", sc.Expectation())
	}
}

// recordScenario writes sc as a new scenario document at path: named
// after the file's stem, its seed pinned to the one the run used, and
// expect: set to the outcome runErr shows. It never overwrites an
// existing file.
func recordScenario(path string, sc *scenario.Scenario, runErr error) (*scenario.Scenario, error) {
	rec := *sc
	rec.Name = strings.TrimSuffix(filepath.Base(path), scenario.Ext)
	rec.Expect = ""
	if o := scenario.Outcome(runErr); o != scenario.ExpectOK {
		rec.Expect = o
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if err := rec.PinSeed(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	_, werr := f.Write(rec.Document("Recorded by cedarsim -record-scenario."))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return &rec, werr
}

// record writes the run of sc, which ended with runErr, to path (see
// recordScenario) when path is set. Failed runs are recorded too —
// deadlocks very much included: a schedule that wedges the machine is
// exactly what the corpus exists to pin.
func record(path string, sc *scenario.Scenario, runErr error) {
	if path == "" {
		return
	}
	rec, err := recordScenario(path, sc, runErr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: -record-scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: recorded %s to %s\n", rec.Name, path)
}

// runFaulted runs the degraded-vs-baseline comparison for the
// scenario's fault plan (opts.Faults) and prints the decomposition
// delta table. With recordPath, the degraded run is recorded there.
func runFaulted(sc *scenario.Scenario, app perfect.App, cfg arch.Config, opts cedar.Options, recordPath string, exp exporter) {
	plan := opts.Faults
	fmt.Printf("%s on %s (%d CEs), fault plan %s\n\n", app.Name, cfg.Name, cfg.CEs(), plan)
	reports, err := cedar.FaultSweep(app, cfg, []faults.Plan{plan}, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: baseline run failed: %v\n", err)
		os.Exit(1)
	}
	fr := reports[0]
	if fr.Run != nil {
		// Export the degraded run: its trace shows the fault windows.
		exp.write(fr.Run)
	}
	if fr.Run != nil && fr.Run.Injector != nil {
		fmt.Println("Fault activations:")
		for _, a := range fr.Run.Injector.Applied() {
			fmt.Printf("  cycle %-12d %s\n", int64(a.At), a.Note)
		}
		fmt.Println()
	}
	record(recordPath, sc, fr.Err)
	if fr.Err != nil {
		switch {
		case errors.Is(fr.Err, sim.ErrDeadlock):
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run deadlocked: %v\n", fr.Err)
		case errors.Is(fr.Err, sim.ErrCycleBudget):
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run exceeded cycle budget: %v\n", fr.Err)
		default:
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run failed: %v\n", fr.Err)
		}
		os.Exit(1)
	}
	fmt.Print(core.FormatDegraded(fr.Report))
}
