// Command cedarsim runs one application on one Cedar configuration
// with full instrumentation and prints the complete measurement
// report: completion time, speedup-relevant statistics, the
// completion-time breakdown, the user-time breakdown per task, the
// detailed OS overhead table, and the contention estimate (when the
// 1-processor baseline is also run).
//
// Usage:
//
//	cedarsim [-app FLO52 | -workload file.workload | -gen seed=7,hot=1]
//	         [-list-apps] [-scenario file.scenario]
//	         [-ces 32] [-steps N] [-flat] [-no-baseline]
//	         [-config 64proc] [-clusters N -ces-per-cluster N
//	          -gm-modules N -stages N -degree N] [-list-configs]
//	         [-fault ce:2@1e6,module:17@5e5]
//	         [-record-scenario new.scenario]
//	         [-replay 'app=FLO52 config=8proc ... plan=ce:1@76414']
//	         [-trace out.json] [-profile out.folded] [-series out.csv|out.prom]
//	         [-metrics out.prom|out.json|out.csv]
//	         [-parallel N] [-statfx] [-server http://host:8344]
//
// Independent simulations within one invocation — the measured run and
// its 1-processor baseline, the healthy/degraded pair of a -fault
// comparison, and the two runs of a -replay — execute
// through the deterministic parallel engine; -parallel bounds the
// worker count (default GOMAXPROCS, 1 forces sequential). Each
// simulation owns its kernel and seed, so the printed report is
// identical at any setting.
//
// The machine defaults to the paper configuration selected by -ces
// (1, 4, 8, 16, or 32 — the closed list the paper measures). -config
// selects any named family member (see -list-configs), and the
// parametric flags build a custom machine validated by
// arch.Config.Validate, whose error names the violated topology
// constraint.
//
// With -fault, the run is repeated healthy and degraded and a
// baseline-vs-degraded overhead-decomposition delta table is printed.
// -record-scenario writes the fault run as a new scenario document
// (app source, config, steps, resolved seed, plan, observed outcome;
// see internal/scenario) and refuses to overwrite an existing file;
// -replay takes a scenario line or a path to a .scenario document and
// re-runs it twice, bit-identically, verifying its expectation. The
// simulation is deterministic in virtual time, so a recorded scenario
// is a complete, stable reproduction of the run it came from.
//
// The application is a workload source: -app takes a registry name
// (see -list-apps) or a single-line gen: spec, -workload runs a
// .workload document file, and -gen samples the parametric generator
// (internal/perfect/gen). -scenario runs one .scenario file and prints
// its canonical record capture — byte-diffable against cedarbench and
// a cedarserved bench job of the same document.
//
// -statfx prints only the run's canonical statfx accounting block
// (Run.StatfxText). -server submits the same invocation to a running
// cedarserved instance (see cmd/cedarserved) and prints the job's
// result — byte-identical to the -statfx output for the same app,
// configuration, steps, and fault plan. Generated and document
// workloads travel to the server inline (the canonical document text),
// so their results cache under the full workload identity.
//
// The observability flags arm the obs layer: -trace writes a
// Chrome/Perfetto trace-event file (load it at ui.perfetto.dev),
// -profile writes folded stacks weighted by virtual cycles (feed to
// flamegraph.pl or inferno), and -series writes the sampled time
// series as CSV, or as Prometheus text exposition when the path ends
// in .prom. With -fault they export the degraded run. -metrics writes
// the run's full metric registry snapshot — the same source of truth
// StatfxText and cedarserved's /metrics render — in the format the
// extension selects (.prom, .json, or CSV); unlike the other three it
// works without arming the obs layer. Whenever a bounded
// instrumentation buffer overflowed, a one-line warning on stderr
// reports the total dropped-event count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

	// Link the generator so -gen and gen: app sources resolve.
	_ "repro/internal/perfect/gen"
)

// supportedCEs lists the CE counts of the paper configurations, for
// error messages.
func supportedCEs() string {
	var counts []int
	for _, c := range arch.PaperConfigs() {
		counts = append(counts, c.CEs())
	}
	sort.Ints(counts)
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ", ")
}

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

// printApps lists the built-in application registry — the names the
// resolver accepts as bare -app values (the -list-apps output).
func printApps() {
	fmt.Printf("%-12s %6s %7s %11s %12s\n",
		"name", "steps", "phases", "iterations", "data words")
	for _, a := range perfect.Registry() {
		fmt.Printf("%-12s %6d %7d %11d %12d\n",
			a.Name, a.Steps, len(a.Phases), a.TotalIterations(), a.DataWords)
	}
}

// runScenario executes one .scenario file and prints its canonical
// record capture — byte-diffable against the same scenario's records
// in a cedarbench capture or a cedarserved bench job result.
func runScenario(path string, parallel int) {
	sc, err := scenario.LoadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(2)
	}
	recs, err := scenario.RunAll(context.Background(), []*scenario.Scenario{sc}, parallel, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	out, err := scenario.EncodeCapture(recs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}

// usageErr prints the message plus flag usage and exits with status 2
// (bad invocation).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cedarsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	appName := flag.String("app", "FLO52", "application: a registry name (see -list-apps) or a gen: spec")
	workloadPath := flag.String("workload", "", "run a .workload document file instead of -app")
	genSpec := flag.String("gen", "", "generate the app from a gen: spec, e.g. seed=7,hot=1 (see internal/perfect/gen)")
	listApps := flag.Bool("list-apps", false, "print the built-in application registry and exit")
	scenarioPath := flag.String("scenario", "", "run one .scenario file and print its canonical record capture")
	ces := flag.Int("ces", 32, "processor count: 1, 4, 8, 16, or 32")
	configName := flag.String("config", "", "named machine family member (see -list-configs)")
	clusters := flag.Int("clusters", 0, "custom machine: cluster count")
	cesPer := flag.Int("ces-per-cluster", 0, "custom machine: CEs per cluster")
	gmModules := flag.Int("gm-modules", 0, "custom machine: global memory modules (default 32)")
	stages := flag.Int("stages", 0, "custom machine: network stages (default 2)")
	degree := flag.Int("degree", 0, "custom machine: crossbar switch degree (default 8)")
	listConfigs := flag.Bool("list-configs", false, "print all named machine configurations and exit")
	steps := flag.Int("steps", 0, "override timestep count (0 = app default)")
	flat := flag.Bool("flat", false, "run the unclustered 32-processor machine (Section 6 discussion)")
	noBase := flag.Bool("no-baseline", false, "skip the 1-processor baseline (no contention estimate)")
	chunk := flag.Int("chunk", 0, "XDOALL pickup chunk size (>1 amortizes the iteration lock)")
	tree := flag.Int("tree", 0, "combining-tree fanout for the flat machine's barriers (>1 enables)")
	faultSpec := flag.String("fault", "", "fault plan, e.g. ce:2@1e6,module:17@5e5 (see internal/faults)")
	replayArg := flag.String("replay", "", "replay a recorded scenario: a scenario line, or a path to a .scenario document")
	recordPath := flag.String("record-scenario", "", "with -fault: record the run as a new scenario document at this path")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file")
	profilePath := flag.String("profile", "", "write a folded-stack profile weighted by virtual cycles")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the simulator process (wall-clock, not virtual cycles)")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile at exit")
	seriesPath := flag.String("series", "", "write the sampled time series (CSV, or Prometheus text if *.prom)")
	metricsPath := flag.String("metrics", "", "write the run's metric registry snapshot (Prometheus text if *.prom, JSON if *.json, CSV otherwise)")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	serverURL := flag.String("server", "", "submit the run to a cedarserved instance at this URL and print its canonical statfx result")
	statfx := flag.Bool("statfx", false, "run locally and print only the canonical statfx accounting block (byte-diffable against a -server run)")
	flag.Parse()

	if *listConfigs {
		printConfigs()
		return
	}
	if *listApps {
		printApps()
		return
	}
	if *scenarioPath != "" {
		runScenario(*scenarioPath, *parallel)
		return
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
	if *replayArg != "" {
		// A scenario carries its own app, config, steps, and seed; the
		// selection flags do not apply to a replay.
		runReplay(*replayArg, *parallel)
		return
	}
	if *recordPath != "" && *faultSpec == "" {
		usageErr("-record-scenario needs a -fault plan to record")
	}
	if _, err := os.Stat(*recordPath); *recordPath != "" && err == nil {
		usageErr("-record-scenario %s already exists", *recordPath)
	}
	if *steps < 0 {
		usageErr("-steps %d is negative", *steps)
	}
	if *chunk < 0 {
		usageErr("-chunk %d is negative", *chunk)
	}
	if *tree < 0 {
		usageErr("-tree %d is negative", *tree)
	}
	if *flat {
		// -flat fixes the machine at 32 unclustered CEs; an explicit
		// contradictory -ces is a mistake, not something to ignore.
		explicitCEs := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ces" {
				explicitCEs = true
			}
		})
		if explicitCEs && *ces != 32 {
			usageErr("-flat implies 32 CEs; contradictory -ces %d", *ces)
		}
	}

	// The three workload sources are mutually exclusive; -app only
	// conflicts when set explicitly (it has a default).
	explicitApp := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "app" {
			explicitApp = true
		}
	})
	if *workloadPath != "" && *genSpec != "" {
		usageErr("-workload and -gen are mutually exclusive")
	}
	if explicitApp && (*workloadPath != "" || *genSpec != "") {
		usageErr("-app conflicts with -workload and -gen")
	}
	// remoteWorkload is the inline source a -server run submits instead
	// of a registry name: the gen: spec verbatim, or the canonical
	// document text of a -workload file (the server must not read
	// client-side paths). source is the app as -record-scenario writes
	// it: a registry name or gen: spec verbatim, else the canonical
	// document text.
	var app perfect.App
	var remoteWorkload, source string
	switch {
	case *genSpec != "":
		src := *genSpec
		if !strings.HasPrefix(src, perfect.GenPrefix) {
			src = perfect.GenPrefix + src
		}
		if app, err = (perfect.Resolver{}).Resolve(src); err != nil {
			usageErr("%v", err)
		}
		remoteWorkload, source = src, src
	case *workloadPath != "":
		if app, err = perfect.LoadWorkload(*workloadPath); err != nil {
			usageErr("%v", err)
		}
		remoteWorkload = string(perfect.PrintWorkload(app))
		source = remoteWorkload
	default:
		if app, err = (perfect.Resolver{AllowFiles: true}).Resolve(*appName); err != nil {
			usageErr("%v", err)
		}
		source = app.Name
		switch {
		case strings.HasPrefix(*appName, perfect.GenPrefix):
			remoteWorkload = string(perfect.PrintWorkload(app))
			source = *appName
		case strings.Contains(*appName, "\n") || strings.HasSuffix(*appName, perfect.WorkloadExt):
			remoteWorkload = string(perfect.PrintWorkload(app))
			source = remoteWorkload
		}
	}

	custom := *clusters != 0 || *cesPer != 0 || *gmModules != 0 || *stages != 0 || *degree != 0
	var cfg arch.Config
	switch {
	case custom:
		// A custom parametric machine: unset dimensions keep Cedar's
		// values, and arch.Config.Validate names any violated topology
		// constraint.
		if *configName != "" {
			usageErr("-config %s conflicts with the parametric machine flags", *configName)
		}
		if *flat {
			usageErr("-flat conflicts with the parametric machine flags")
		}
		cfg = arch.Cedar32
		if *clusters > 0 {
			cfg.Clusters = *clusters
		}
		if *cesPer > 0 {
			cfg.CEsPerCluster = *cesPer
		}
		if *gmModules > 0 {
			cfg.GMModules = *gmModules
		}
		if *stages > 0 {
			cfg.NetStages = *stages
		}
		if *degree > 0 {
			cfg.SwitchDegree = *degree
		}
		cfg.Name = fmt.Sprintf("custom-%dx%d", cfg.Clusters, cfg.CEsPerCluster)
		if err := cfg.Validate(); err != nil {
			usageErr("%v", err)
		}
	case *configName != "":
		if *flat {
			usageErr("-flat conflicts with -config")
		}
		var ok bool
		cfg, ok = arch.FamilyByName(*configName)
		if !ok {
			usageErr("unknown configuration %q (see -list-configs)", *configName)
		}
	case *flat:
		cfg = arch.Unclustered32
	default:
		found := false
		for _, c := range arch.PaperConfigs() {
			if c.CEs() == *ces {
				cfg, found = c, true
				break
			}
		}
		if !found {
			usageErr("no paper configuration with %d CEs (supported: %s; use -config or the parametric flags for scaled machines)", *ces, supportedCEs())
		}
	}

	opts := cedar.Options{Steps: *steps, XdoallChunk: *chunk, TreeFanout: *tree, Parallel: *parallel}

	// The service modes print the canonical statfx block and nothing
	// else, so a local and a remote run of the same invocation diff
	// byte-for-byte.
	if *serverURL != "" {
		if custom {
			usageErr("-server needs a named configuration the service knows (see -list-configs)")
		}
		runRemote(*serverURL, app, remoteWorkload, cfg, *steps, *faultSpec)
		return
	}
	if *statfx {
		runStatfx(app, cfg, opts, *faultSpec, exporter{metrics: *metricsPath})
		return
	}

	exp := exporter{trace: *tracePath, profile: *profilePath, series: *seriesPath, metrics: *metricsPath}
	if exp.enabled() {
		// Arm the obs layer; the trace export also needs the hpm
		// monitor for runtime-structure spans.
		opts.Observe = &obs.Options{}
		if exp.trace != "" && opts.TraceCapacity == 0 {
			opts.TraceCapacity = 1 << 22
		}
	}

	if *faultSpec != "" {
		runFaulted(app, source, cfg, opts, *faultSpec, *recordPath, exp)
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

// runReplay re-runs one recorded scenario — a scenario line, or a
// .scenario document — twice for bit-identity and verifies its
// declared expectation. Exit status 1 when it misses.
func runReplay(arg string, parallel int) {
	var sc *scenario.Scenario
	var err error
	where := "command line"
	if strings.Contains(arg, "plan=") {
		sc, err = scenario.ParseLine(arg)
	} else {
		sc, err = scenario.LoadFile(arg)
		where = arg
	}
	if err != nil {
		usageErr("-replay: %v", err)
	}
	r := scenario.Replay([]*scenario.Scenario{sc}, parallel)[0]
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

// recordScenario writes the fault run of source on cfg under opts as a
// scenario document at path, declaring the observed outcome. It never
// overwrites an existing file.
func recordScenario(path, source string, cfg arch.Config, opts cedar.Options, runErr error) (*scenario.Scenario, error) {
	name := strings.TrimSuffix(filepath.Base(path), scenario.Ext)
	sc, err := scenario.FromRun(name, source, cfg, opts, scenario.Outcome(runErr))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	_, werr := f.Write(sc.Document("Recorded by cedarsim -record-scenario."))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return sc, werr
}

// runFaulted runs the degraded-vs-baseline comparison for one fault
// plan and prints the decomposition delta table. With recordPath, the
// degraded run of source (the app's scenario source, see main) is
// recorded there as a scenario document carrying its observed outcome.
func runFaulted(app perfect.App, source string, cfg arch.Config, opts cedar.Options, spec, recordPath string, exp exporter) {
	plan, err := faults.Parse(spec)
	if err != nil {
		usageErr("%v", err)
	}
	if err := plan.Validate(cfg); err != nil {
		usageErr("%v", err)
	}

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
	if recordPath != "" {
		// Record the degraded run — deadlocks very much included: a
		// schedule that wedges the machine is exactly what the corpus
		// exists to pin.
		po := opts
		po.Faults = plan
		sc, err := recordScenario(recordPath, source, cfg, po, fr.Err)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: -record-scenario: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cedarsim: recorded %s to %s\n", sc.Name, recordPath)
	}
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
