// Command cedarfuzz is the fault-scenario regression and fuzzing
// driver: it replays the checked-in corpus (every entry must meet its
// declared expectation, twice, with byte-identical statfx output) and
// then sweeps randomized fail-stop schedules across the page-fault
// windows of a healthy run — the schedule family that exposed the
// fail-stop page-fault deadlock. Any scenario that errors is
// delta-debugged down to a minimal reproduction and printed as its
// scenario line and as a ready-to-commit corpus document.
//
// Usage:
//
//	cedarfuzz [-corpus testdata/faultcorpus] [-quick] [-n 25]
//	          [-seed S] [-app FLO52] [-config 8proc] [-steps 1]
//	          [-shrink 60] [-parallel N]
//	cedarfuzz -apps [-scenarios testdata/scenarios] [-quick] [-n 25]
//	          [-seed S] [-config 8proc] [-shrink 60] [-promote dir]
//
// Without -quick only the corpus is replayed (cheap, deterministic —
// the CI regression gate). With -quick the randomized sweep runs too;
// its seed defaults to the wall clock so every run covers fresh
// schedules, and is always printed so a failure can be reproduced by
// re-running with -seed. Exit status: 0 all scenarios behaved, 1
// otherwise, 2 bad invocation.
//
// -apps switches from fault schedules to workload space. The corpus
// leg runs every scenario in -scenarios that declares a pathology:
// class and verifies the run still exhibits it (the detectors in
// cedar.Run.Pathologies — hot-spot modules, barrier convoys, page
// storms). The -quick leg samples the parametric workload generator
// (internal/perfect/gen) with seeds derived from the logged master
// seed, runs every sample, and ddmin-shrinks each pathological one to
// a minimal reproduction, printed as a ready-to-commit inline-workload
// scenario — or written into -promote's directory. Sweep findings are
// the point, not failures; only samples that error count against the
// exit status.
//
// Corpus replays and sweep scenarios are independent simulations and
// run through the deterministic parallel engine; -parallel bounds the
// worker count (default GOMAXPROCS, 1 forces sequential). Results are
// reported in corpus/schedule order, so the gate's output and exit
// status are identical at any setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/faults/replay"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/scenario"
)

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cedarfuzz: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	corpusDir := flag.String("corpus", "testdata/faultcorpus", "regression corpus directory (*.scenario documents)")
	quick := flag.Bool("quick", false, "also run the bounded randomized sweep (fault schedules, or generator samples with -apps)")
	n := flag.Int("n", 25, "sweep: number of randomized scenarios (or generator samples)")
	seed := flag.Int64("seed", 0, "sweep: RNG seed (0 = wall clock; the used seed is always printed)")
	appName := flag.String("app", "FLO52", "sweep: application")
	configName := flag.String("config", "8proc", "sweep: machine configuration")
	steps := flag.Int("steps", 1, "sweep: timestep count")
	shrinkRuns := flag.Int("shrink", 60, "max replays spent shrinking a failing scenario (or pathological workload)")
	parallel := flag.Int("parallel", 0, "concurrent replays (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	apps := flag.Bool("apps", false, "app-space mode: gate the pathology scenarios, then (with -quick) sweep the workload generator")
	scenariosDir := flag.String("scenarios", "testdata/scenarios", "app-space mode: scenario directory with pathology: declarations")
	promote := flag.String("promote", "", "app-space mode: write each shrunk pathological workload into this directory as a .scenario file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected arguments %v", flag.Args())
	}

	failures := 0
	if *apps {
		failures += appsCorpus(*scenariosDir, *parallel)
		if *quick {
			failures += appsSweep(*configName, *seed, *n, *shrinkRuns, *parallel, *promote)
		}
	} else {
		failures += replayCorpus(*corpusDir, *parallel)
		if *quick {
			failures += sweep(*appName, *configName, *steps, *seed, *n, *shrinkRuns, *parallel)
		}
	}
	if failures > 0 {
		fatalf(1, "%d scenario(s) misbehaved", failures)
	}
}

// replayCorpus replays every checked-in scenario twice: the outcome
// must match the scenario's expectation and the two runs must produce
// byte-identical statfx output (the record/replay contract). Scenarios
// run concurrently through the engine pool; results print in corpus
// order.
func replayCorpus(dir string, parallel int) (failures int) {
	scs, err := scenario.LoadDir(dir)
	if err != nil {
		fatalf(2, "%v", err)
	}
	for _, r := range scenario.Replay(scs, parallel) {
		if r.Err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "cedarfuzz: %s: %v\n", r.Scenario.File, r.Err)
			continue
		}
		fmt.Printf("corpus %s: %s ok\n", r.Scenario.File, r.Scenario.Expectation())
	}
	fmt.Printf("corpus %s: %d scenario(s), %d failure(s)\n", dir, len(scs), failures)
	return failures
}

// sweep fuzzes fail-stop schedules across the page-fault windows of a
// healthy run. Failing scenarios are shrunk and printed as corpus
// documents. Scenarios (including any shrinking, which is per-scenario
// deterministic) run concurrently; results print in schedule order.
func sweep(appName, configName string, steps int, seed int64, n, shrinkRuns, parallel int) (failures int) {
	cfg, ok := arch.FamilyByName(configName)
	if !ok {
		fatalf(2, "unknown configuration %q", configName)
	}
	base, err := scenario.FromRun("sweep", appName, cfg, cedar.Options{Steps: steps}, scenario.ExpectOK)
	if err != nil {
		fatalf(2, "%v", err)
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	fmt.Printf("sweep: %s on %s, %d scenario(s), seed %d (reproduce with -seed %d)\n",
		appName, cfg.Name, n, seed, seed)

	app, _, err := base.Resolve()
	if err != nil {
		fatalf(1, "%v", err)
	}
	windows, err := faultWindows(app, cfg, base.Options())
	if err != nil {
		fatalf(1, "healthy window-discovery run failed: %v", err)
	}
	if len(windows) == 0 {
		fatalf(1, "no page-fault windows on the healthy run; nothing to aim at")
	}
	fmt.Printf("sweep: %d page-fault window(s), first [%d, %d]\n",
		len(windows), int64(windows[0].Start), int64(windows[0].End))

	// CE 0 leads the main task; killing it deadlocks the machine by
	// design (the helpers starve), which would drown real hand-off bugs
	// in expected failures. Kill any other CE.
	var ces []int
	for ce := 1; ce < cfg.CEs(); ce++ {
		ces = append(ces, ce)
	}
	plans := replay.SweepTimes(base.Plan, windows, ces, cfg.GMModules, seed, n)
	scs := make([]*scenario.Scenario, len(plans))
	for i, plan := range plans {
		if scs[i], err = base.WithPlan(plan); err != nil {
			fatalf(1, "sweep generated an invalid plan: %v", err)
		}
	}
	type outcome struct {
		sc     *scenario.Scenario
		err    error
		shrunk *scenario.Scenario
		runs   int
		serr   error
	}
	results := engine.Map(parallel, scs, func(_ int, sc *scenario.Scenario) outcome {
		o := outcome{sc: sc}
		if _, _, o.err = scenario.Check(context.Background(), sc); o.err != nil {
			o.shrunk, o.runs, o.serr = shrink(sc, shrinkRuns)
		}
		return o
	})
	for i, o := range results {
		if o.err == nil {
			fmt.Printf("sweep %3d/%d: ok  %s\n", i+1, n, o.sc.Plan)
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "cedarfuzz: sweep %d/%d FAILED (%v)\n  scenario: %s\n",
			i+1, n, o.err, line(o.sc))
		if o.serr != nil {
			fmt.Fprintf(os.Stderr, "  shrunk failed: %v\n", o.serr)
			continue
		}
		o.shrunk.Name = fmt.Sprintf("sweep-%d-%d", seed, i+1)
		fmt.Fprintf(os.Stderr, "  shrunk (%d replays): %s\n  check it into testdata/faultcorpus/ with a comment naming the bug:\n%s",
			o.runs, line(o.shrunk), indent(o.shrunk.Document(""), "    "))
	}
	return failures
}

// line renders a scenario's one-line form, falling back to its name.
func line(sc *scenario.Scenario) string {
	if l, err := sc.Line(); err == nil {
		return l
	}
	return sc.Name
}

// shrink minimizes a failing scenario's fault plan with the
// delta-debugging shrinker: the result reproduces the same outcome
// class (deadlock, or any error) with the fewest, plainest fault
// injections, and declares that class as its expectation. It returns
// the shrunk scenario and the number of runs spent. Shrinking a
// scenario that completes cleanly is an error — there is nothing to
// reproduce.
func shrink(sc *scenario.Scenario, maxRuns int) (*scenario.Scenario, int, error) {
	ctx := context.Background()
	_, class, _ := scenario.Check(ctx, sc)
	if class == scenario.ExpectOK {
		return sc, 1, fmt.Errorf("scenario %s completes cleanly; nothing to shrink", sc)
	}
	failing := func(plan faults.Plan) bool {
		cand, err := sc.WithPlan(plan)
		if err != nil {
			return false
		}
		_, got, _ := scenario.Check(ctx, cand)
		return got == class
	}
	plan, runs := replay.Shrink(sc.Plan, failing, maxRuns)
	shrunk, err := sc.WithPlan(plan)
	if err != nil {
		return sc, runs + 1, err
	}
	shrunk.Expect = class
	return shrunk, runs + 1, nil
}

// faultWindows runs the app healthy on the configuration with the
// observability layer armed and returns the merged virtual-time
// windows in which page faults were serviced. The schedule fuzzer
// (replay.SweepTimes) aims fail-stops at these windows — the hand-off
// races live inside them.
func faultWindows(app perfect.App, cfg arch.Config, opts cedar.Options) ([]replay.Window, error) {
	opts.Faults = nil
	if opts.Observe == nil {
		opts.Observe = &obs.Options{SeriesInterval: -1}
	}
	run, err := cedar.SimulateRunErr(app, cfg, opts)
	if err != nil {
		return nil, err
	}
	var ws []replay.Window
	for _, sp := range run.Obs.Spans() {
		if strings.HasPrefix(sp.Name, "pgflt") {
			ws = append(ws, replay.Window{Start: sp.Start, End: sp.End})
		}
	}
	return replay.MergeWindows(ws), nil
}
