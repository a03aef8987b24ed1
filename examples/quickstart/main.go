// Quickstart: simulate one Perfect Benchmark application on the full
// 4-cluster/32-processor Cedar and decompose its completion time the
// way the paper does — operating system overheads, parallelization
// overheads, and global memory / network contention.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/perfect"
)

func main() {
	app := perfect.FLO52()

	// Run the instrumented simulation on the 1-processor baseline and
	// the full machine. The baseline supplies the "minimum possible
	// total processing time" the contention methodology needs.
	ctx := context.Background()
	baseRun, err := cedar.SimulateRunCtx(ctx, app, arch.Cedar1, cedar.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart: baseline run failed:", err)
		os.Exit(1)
	}
	fullRun, err := cedar.SimulateRunCtx(ctx, app, arch.Cedar32, cedar.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart: 32-processor run failed:", err)
		os.Exit(1)
	}
	base, full := baseRun.Result, fullRun.Result

	// Report in paper-scale seconds (1-processor CT normalized to the
	// published 613 s for FLO52).
	scale := perfect.PaperCT1(app.Name) / arch.Seconds(int64(base.CT))
	base.Scale, full.Scale = scale, scale

	fmt.Printf("%s on the 4-cluster Cedar\n", app.Name)
	fmt.Printf("  completion time: %.0f s (1 processor: %.0f s)\n",
		full.CTSeconds(), base.CTSeconds())
	fmt.Printf("  speedup: %.2f   average concurrency: %.2f\n\n",
		full.Speedup(base), full.MachineConcurrency())

	// (1) Operating system overheads — Section 5.
	fmt.Printf("operating system overhead: %.1f%% of CT (paper band: 5-21%%)\n",
		full.OSShare()*100)
	for _, row := range full.OSDetail() {
		if row.Seconds > 0.005 {
			fmt.Printf("  %-16s %6.2f s  %5.2f%%\n", row.Category, row.Seconds, row.Percent)
		}
	}
	fmt.Println()

	// (2) Parallelization overheads — Section 6.
	main := full.Task(0)
	fmt.Printf("parallelization overhead, main task: %.1f%% of CT (paper: 10-25%%)\n",
		main.OverheadFraction()*100)
	fmt.Printf("  loop setup %.1f%%  iteration pickup %.1f%%  barrier wait %.1f%%\n",
		main.Setup*100, main.Pick*100, main.Barrier*100)
	for c := 1; c < full.Cfg.Clusters; c++ {
		h := full.Task(c)
		fmt.Printf("parallelization overhead, helper %d: %.1f%% (helper wait %.1f%%)\n",
			c, h.OverheadFraction()*100, h.HelperWait*100)
	}
	fmt.Println()

	// (3) Global memory and network contention — Section 7.
	cont, err := core.ContentionOverhead(base, full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart: contention estimate failed:", err)
		os.Exit(1)
	}
	fmt.Printf("contention overhead: Tp_actual %.0f s vs Tp_ideal %.0f s -> %.1f%% of CT (paper: 8-21%%)\n",
		full.Seconds(cont.TpActual), full.Seconds(cont.TpIdeal), cont.OvCont)
	fmt.Printf("parallel loop concurrency per cluster (Table 3): %.2f\n\n",
		full.ParallelLoopConcurrency())

	fmt.Printf("total overhead share: %.0f%% of CT (paper conclusion: 30-50%%)\n",
		core.TotalOverheadShare(base, full)*100)
}
