// Command cedarscale runs the paper's Section-7 overhead decomposition
// as a capacity-planning tool: one application across the 32-processor
// Cedar and the scaled family members (64, 128, 256 CEs), reporting
// how completion time, speedup, average concurrency, the OS share,
// barrier cost, and the estimated global-memory/network contention
// (Ov_cont) trend as the machine grows.
//
// Usage:
//
//	cedarscale [-app FLO52] [-configs 32proc,64proc,128proc,256proc]
//	           [-steps N] [-weak] [-csv] [-parallel N]
//
// The study's runs — one 1-processor base per distinct problem size
// plus one run per machine — are independent simulations and execute
// through the deterministic parallel engine; -parallel bounds the
// worker count (default GOMAXPROCS). Rows are assembled in -configs
// order, so the report is identical at any setting.
//
// By default the run is a strong-scaling study: the same
// paper-calibrated application on ever larger machines, so the fixed
// problem's loop counts divide across more CEs and the overhead share
// grows. With -weak each machine runs the application weak-scaled by
// ceil(CEs/32) — parallel iteration counts and data footprint grow
// with the machine while serial sections stay fixed — and each scaled
// problem is compared against its own 1-processor run.
//
// All paper-calibrated unit costs (memory module cycles, OS service
// times, synchronization instruction costs) are held fixed across the
// family; see EXPERIMENTS.md, "Scaling study".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perfect"
	"repro/internal/profio"
)

// row is one machine's line of the study.
type row struct {
	cfg     arch.Config
	res     *core.Result
	speedup float64
	ovCont  float64 // percent of CT; negative when unavailable
}

// simulate runs one point of the study, exiting on a failed run.
func simulate(app perfect.App, cfg arch.Config, opts cedar.Options) *core.Result {
	run, err := cedar.SimulateRunErr(app, cfg, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarscale: %v\n", err)
		os.Exit(1)
	}
	return run.Result
}

func main() {
	appName := flag.String("app", "FLO52", "application: FLO52, ARC2D, MDG, OCEAN, ADM")
	configList := flag.String("configs", "32proc,64proc,128proc,256proc",
		"comma-separated named configurations (see cedarsim -list-configs)")
	steps := flag.Int("steps", 0, "override timestep count (0 = app default)")
	weak := flag.Bool("weak", false, "weak-scale the problem by ceil(CEs/32) per machine")
	csv := flag.Bool("csv", false, "emit the study as CSV")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the simulator process")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile at exit")
	flag.Parse()

	stopProf, err := profio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarscale: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "cedarscale: profile: %v\n", err)
		}
	}()

	app, ok := perfect.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "cedarscale: unknown application %q\n", *appName)
		os.Exit(2)
	}

	var cfgs []arch.Config
	for _, name := range strings.Split(*configList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cfg, ok := arch.FamilyByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "cedarscale: unknown configuration %q (see cedarsim -list-configs)\n", name)
			os.Exit(2)
		}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "cedarscale: %v\n", err)
			os.Exit(2)
		}
		cfgs = append(cfgs, cfg)
	}
	if len(cfgs) == 0 {
		fmt.Fprintln(os.Stderr, "cedarscale: -configs selected no configurations")
		os.Exit(2)
	}

	opts := cedar.Options{Steps: *steps, Parallel: *parallel}
	mode := "strong"
	if *weak {
		mode = "weak"
	}
	if !*csv {
		fmt.Printf("%s %s-scaling study (paper-calibrated unit costs held fixed)\n\n", app.Name, mode)
	}

	// One 1-processor base per distinct problem size: strong scaling
	// shares a single base; weak scaling needs one per scale factor so
	// Ov_cont compares each machine against its own problem. The
	// factors are known up front, so the bases run as one parallel
	// batch (factor 1 is always included: it anchors the paper
	// normalization below).
	factorOf := func(cfg arch.Config) int {
		if *weak {
			return perfect.ScaleFactorFor(cfg.CEs())
		}
		return 1
	}
	factors := []int{1}
	seen := map[int]bool{1: true}
	for _, cfg := range cfgs {
		if f := factorOf(cfg); !seen[f] {
			seen[f] = true
			factors = append(factors, f)
		}
	}
	baseResults := engine.Map(*parallel, factors, func(_ int, f int) *core.Result {
		return simulate(app.Scaled(f), arch.Cedar1, opts)
	})
	bases := map[int]*core.Result{}
	for i, f := range factors {
		bases[f] = baseResults[i]
	}

	// Normalize seconds the way Sweeps does — the unscaled 1-processor
	// run matches the paper's CT1 — so every row reads in Table-1
	// units. One shared scale keeps rows comparable across problem
	// sizes in weak mode.
	scale := 1.0
	if paper := perfect.PaperCT1(app.Name); paper > 0 {
		if raw := arch.Seconds(int64(bases[1].CT)); raw > 0 {
			scale = paper / raw
		}
	}

	rows := engine.Map(*parallel, cfgs, func(_ int, cfg arch.Config) row {
		factor := factorOf(cfg)
		base := bases[factor]
		res := simulate(app.Scaled(factor), cfg, opts)
		res.Scale = scale
		r := row{cfg: cfg, res: res, speedup: res.Speedup(base), ovCont: -1}
		if cont, err := core.ContentionOverhead(base, res); err == nil {
			r.ovCont = cont.OvCont
		}
		return r
	})

	if *csv {
		fmt.Println("app,mode,config,ces,ct_seconds,speedup,concurrency,os_share_pct,barrier_pct,ov_cont_pct")
		for _, r := range rows {
			fmt.Printf("%s,%s,%s,%d,%.2f,%.3f,%.2f,%.2f,%.2f,%s\n",
				app.Name, mode, r.cfg.Name, r.cfg.CEs(), r.res.CTSeconds(),
				r.speedup, r.res.MachineConcurrency(), r.res.OSShare()*100,
				r.res.Task(0).Barrier*100, fmtCont(r.ovCont))
		}
		return
	}

	fmt.Printf("%-10s %5s %10s %9s %12s %9s %10s %9s\n",
		"config", "CEs", "CT (s)", "speedup", "concurrency", "OS share", "barrier", "Ov_cont")
	for _, r := range rows {
		fmt.Printf("%-10s %5d %10.1f %9.2f %12.2f %8.1f%% %9.1f%% %8s%%\n",
			r.cfg.Name, r.cfg.CEs(), r.res.CTSeconds(), r.speedup,
			r.res.MachineConcurrency(), r.res.OSShare()*100,
			r.res.Task(0).Barrier*100, fmtCont(r.ovCont))
	}

	fmt.Println("\nreading the trend:")
	fmt.Println("  - speedup below concurrency: overheads eat active time (paper Table 1)")
	fmt.Println("  - OS share and barrier cost grow with the CE count (paper Sections 5-6)")
	fmt.Println("  - Ov_cont is the Section-7 T_p_ideal estimate of GM/network contention")
}

// fmtCont renders an Ov_cont percentage, or "-" when the estimate was
// unavailable (e.g. a 1-CE row).
func fmtCont(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
