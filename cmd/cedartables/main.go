// Command cedartables regenerates every table and figure of the
// paper's evaluation from fresh simulation runs:
//
//	Table 1    — completion times, speedups, average concurrency
//	Figure 3   — completion-time breakdown (user/system/interrupt/spin)
//	Figures 5-9 — user-time breakdown per task
//	Table 2    — detailed OS overhead characterization (32 processors)
//	Table 3    — average parallel loop concurrency
//	Table 4    — global memory and network contention overhead
//
// With -paper, each table is followed by the paper's published values
// for side-by-side comparison.
//
// Usage:
//
//	cedartables [-app FLO52,...] [-steps N] [-paper] [-parallel N]
//
// The application × configuration grid is simulated through the
// deterministic parallel engine: -parallel bounds the worker count
// (default GOMAXPROCS; 1 forces sequential). Every simulation owns its
// kernel and seed and tables are assembled in input order, so the
// output — including -csv, which CI diffs byte-for-byte against the
// golden snapshot — is identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metricreg"
	"repro/internal/perfect"
)

// writeRegistrySnapshots simulates each app on the 32-CE configuration
// and writes its metric registry snapshot (ct, concurrency, the OS
// breakdown distribution, per-CE accounts) as <app>_32proc.metrics.json
// under dir.
func writeRegistrySnapshots(dir string, apps []perfect.App, opts cedar.Options) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "cedartables: %v\n", err)
		os.Exit(1)
	}
	for _, app := range apps {
		run, err := cedar.SimulateRunErr(app, arch.Cedar32, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedartables: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(dir, strings.ToLower(app.Name)+"_32proc.metrics.json")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedartables: %v\n", err)
			os.Exit(1)
		}
		werr := metricreg.WriteJSON(f, run.Metrics().Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "cedartables: writing %s: %v\n", path, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cedartables: wrote %s\n", path)
	}
}

func main() {
	appsFlag := flag.String("app", "", "comma-separated app names (default: all five)")
	steps := flag.Int("steps", 0, "override timestep count (0 = app default)")
	paper := flag.Bool("paper", false, "print the paper's published values after each table")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of formatted tables")
	metricsDir := flag.String("metrics", "", "write each app's 32-CE run metric registry snapshot as JSON into this directory")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	flag.Parse()

	apps := perfect.Apps()
	if *appsFlag != "" {
		apps = nil
		for _, name := range strings.Split(*appsFlag, ",") {
			a, ok := perfect.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "cedartables: unknown application %q\n", name)
				os.Exit(2)
			}
			apps = append(apps, a)
		}
	}

	opts := cedar.Options{Steps: *steps, Parallel: *parallel}
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = app.Name
	}
	fmt.Fprintf(os.Stderr, "simulating %s across configurations...\n", strings.Join(names, ", "))
	sweeps := cedar.Sweeps(apps, opts)

	if *metricsDir != "" {
		// Re-run each app's 32-CE configuration with the same seed — the
		// kernel is deterministic, so this reproduces the sweep's run —
		// and export the full metric registry snapshot: the same source
		// of truth the tables fold (registry files go to their own
		// directory; table output above stays byte-identical).
		writeRegistrySnapshots(*metricsDir, apps, opts)
	}

	if *csv {
		var at32 []*core.Result
		for _, s := range sweeps {
			if r, ok := s.Results[32]; ok {
				at32 = append(at32, r)
			}
		}
		fmt.Print(core.Table1CSV(sweeps))
		fmt.Print(core.Figure3CSV(sweeps))
		fmt.Print(core.UserTimeCSV(sweeps))
		fmt.Print(core.Table2CSV(at32))
		fmt.Print(core.Table3CSV(sweeps))
		fmt.Print(core.Table4CSV(sweeps))
		return
	}

	fmt.Println(core.FormatTable1(sweeps))
	if *paper {
		printPaperTable1(sweeps)
	}
	fmt.Println()

	for _, s := range sweeps {
		fmt.Println(core.FormatFigure3(s))
	}
	for _, s := range sweeps {
		fmt.Println(core.FormatUserTime(s))
	}

	var at32 []*core.Result
	for _, s := range sweeps {
		if r, ok := s.Results[32]; ok {
			at32 = append(at32, r)
		}
	}
	if len(at32) > 0 {
		fmt.Println(core.FormatTable2(at32))
		if *paper {
			printPaperTable2(at32)
		}
		fmt.Println()
	}

	fmt.Println(core.FormatTable3(sweeps))
	if *paper {
		printPaperTable3(sweeps)
	}
	fmt.Println()
	fmt.Println(core.FormatTable4(sweeps))
	if *paper {
		printPaperTable4(sweeps)
	}
}

func printPaperTable1(sweeps []*core.Sweep) {
	fmt.Println("  [paper] Table 1:")
	for _, s := range sweeps {
		row, ok := perfect.PaperTable1[s.App]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s CT(s):", s.App)
		for _, p := range []int{1, 4, 8, 16, 32} {
			fmt.Printf(" %7.0f", row.CT[p])
		}
		fmt.Printf("\n  %-8s Speedup:", "")
		for _, p := range []int{4, 8, 16, 32} {
			fmt.Printf(" %7.2f", row.Speedup[p])
		}
		fmt.Printf("\n  %-8s Concurr:", "")
		for _, p := range []int{4, 8, 16, 32} {
			fmt.Printf(" %7.2f", row.Concurr[p])
		}
		fmt.Println()
	}
}

func printPaperTable2(results []*core.Result) {
	fmt.Println("  [paper] Table 2 (s, %):")
	for _, r := range results {
		rows, ok := perfect.PaperTable2[r.App]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s", r.App)
		for _, label := range []string{"cpi", "ctx", "pg flt (c)", "pg flt (s)",
			"Cr Sect (clus)", "Cr Sect (glbl)", "clus syscall", "glbl syscall", "ast"} {
			row := rows[label]
			fmt.Printf(" %s=%.2f/%.2f%%", label, row.Seconds, row.Percent)
		}
		fmt.Println()
	}
}

func printPaperTable3(sweeps []*core.Sweep) {
	fmt.Println("  [paper] Table 3 (per task/cluster):")
	for _, s := range sweeps {
		rows, ok := perfect.PaperTable3[s.App]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s", s.App)
		for _, p := range []int{4, 8, 16, 32} {
			fmt.Printf(" %dp=%v", p, rows[p])
		}
		fmt.Println()
	}
}

func printPaperTable4(sweeps []*core.Sweep) {
	fmt.Println("  [paper] Table 4 Ov_cont (%):")
	for _, s := range sweeps {
		row, ok := perfect.PaperTable4[s.App]
		if !ok {
			continue
		}
		fmt.Printf("  %-8s", s.App)
		for _, p := range []int{4, 8, 16, 32} {
			fmt.Printf(" %dp=%.1f", p, row.OvCont[p])
		}
		fmt.Println()
	}
}
