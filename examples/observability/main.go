// Example observability: run FLO52 on the 2-cluster Cedar with the
// obs layer armed, export all three artifact formats, and print a
// short digest of what they contain.
//
// The same artifacts come from the CLI:
//
//	cedarsim -trace t.json -profile p.folded -series s.csv 'app=FLO52 config=16proc plan='
//
// and machine-readable event summaries from:
//
//	cedartrace -summary -json 'app=FLO52 config=16proc steps=1 plan=' | jq .event_counts
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/perfect"
)

func main() {
	run, err := cedar.SimulateRunCtx(context.Background(), perfect.FLO52(), arch.Cedar16, cedar.Options{
		Steps:         1,
		TraceCapacity: 1 << 20,
		Observe:       &obs.Options{},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "observability:", err)
		os.Exit(1)
	}

	dir, err := os.MkdirTemp("", "cedar-obs")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
		return path
	}

	trace := write("flo52.trace.json", func(f *os.File) error {
		return obs.WriteTrace(f, run.TraceBundle())
	})
	profile := write("flo52.folded", func(f *os.File) error {
		return obs.WriteFolded(f, run.Result.App, run.Result.CT, run.Machine.Accounts())
	})
	series := write("flo52.series.csv", func(f *os.File) error {
		return obs.WriteCSV(f, run.Series)
	})

	bundle := run.TraceBundle()
	fmt.Printf("FLO52 on %s: %d cycles\n", run.Machine.Cfg.Name, run.Result.CT)
	fmt.Printf("  %-28s %d spans, %d instants (open at ui.perfetto.dev)\n",
		filepath.Base(trace), len(bundle.Spans), len(bundle.Instants))
	fmt.Printf("  %-28s per-CE weights each sum to CT = %d cycles\n",
		filepath.Base(profile), int64(run.Result.CT))
	mean, _ := run.Series.Mean("concurrency")
	fmt.Printf("  %-28s %d samples, mean concurrency %.2f\n",
		filepath.Base(series), run.Series.Len(), mean)
	fmt.Printf("artifacts in %s\n", dir)
}
