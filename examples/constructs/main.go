// Construct choice: build the same loop nest as a hierarchical
// SDOALL/CDOALL and as a flat XDOALL (using the synthetic workload
// generator) and compare the distribution overheads across processor
// counts — Section 6's finding that "the parallel loop distribution
// overhead is as high as 6-10% of the application completion time for
// the flat parallel loop construct", versus under 1% for the
// hierarchical one, because every CE in an XDOALL individually
// test-and-sets the global iteration lock.
//
//	go run ./examples/constructs
package main

import (
	"context"
	"fmt"
	"os"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfect"
)

// simulate runs app on cfg, exiting on a failed run.
func simulate(app perfect.App, cfg arch.Config) *core.Result {
	run, err := cedar.SimulateRunCtx(context.Background(), app, cfg, cedar.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "constructs:", err)
		os.Exit(1)
	}
	return run.Result
}

func pickShare(r *core.Result) float64 {
	var pick float64
	for _, a := range r.Accounts {
		pick += float64(a.Get(metrics.CatPickIter))
	}
	return pick / (float64(r.CT) * float64(r.Cfg.CEs()))
}

func main() {
	build := func(kind perfect.PhaseKind, name string) perfect.App {
		return perfect.SyntheticSpec{
			Name:  name,
			Steps: 4, LoopsPerStep: 6, Kind: kind,
			Outer: 16, Inner: 16,
			Work: 1800, Jitter: 0.1,
			GMWords: 48, ClusWords: 64,
		}.App()
	}
	sdo := build(perfect.PhaseSX, "sdoall-version")
	xdo := build(perfect.PhaseX, "xdoall-version")

	fmt.Println("same loop nest, two constructs (iteration-pickup overhead, % of CT):")
	fmt.Printf("%8s %16s %16s %14s\n", "config", "sdoall/cdoall", "xdoall", "CT ratio x/s")
	for _, cfg := range arch.PaperConfigs() {
		rs := simulate(sdo, cfg)
		rx := simulate(xdo, cfg)
		fmt.Printf("%7dp %15.2f%% %15.2f%% %14.3f\n",
			cfg.CEs(), pickShare(rs)*100, pickShare(rx)*100,
			float64(rx.CT)/float64(rs.CT))
	}

	fmt.Println(`
The hierarchical construct's pickup stays negligible at every size: only
one processor per cluster requests outer iterations from global memory,
and the inner CDOALL is distributed by the concurrency bus with no
network traffic. The flat construct's pickup grows with the processor
count as the test-and-sets serialize at the iteration lock's memory
module. (Completion time can still favor XDOALL when global
self-scheduling balances the load better — the paper notes xdoalls
"were often used for convenience"; the overhead, not always the total
time, is what clustering removes.)`)
}
