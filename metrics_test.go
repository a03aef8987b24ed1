package cedar

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfect"
)

// TestRunMetricsRegistry: the lazily built registry carries the full
// result decomposition, dense, and agrees with the Result it was built
// from.
func TestRunMetricsRegistry(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2, TraceCapacity: 1 << 14})
	snap := run.Metrics().Snapshot()

	if got := snap.Value("ct_cycles"); got != float64(run.Result.CT) {
		t.Fatalf("ct_cycles = %g, want %d", got, int64(run.Result.CT))
	}
	ot, ok := snap.Get("os_time_cycles")
	if !ok || len(ot.Cells) != int(metrics.NumOSCategories) {
		t.Fatalf("os_time_cycles cells = %d, want %d", len(ot.Cells), metrics.NumOSCategories)
	}
	if ot.Cells[0].Label[0] != metrics.OSCategory(0).String() {
		t.Fatalf("os axis label = %q", ot.Cells[0].Label[0])
	}
	bc, _ := snap.Get("ce_category_cycles")
	wantCells := len(run.Result.Accounts) * int(metrics.NumCategories)
	if len(bc.Cells) != wantCells {
		t.Fatalf("ce_category_cycles cells = %d, want %d", len(bc.Cells), wantCells)
	}
	ev, ok := snap.Get("hpm_events_total")
	if !ok {
		t.Fatal("traced run has no hpm_events_total")
	}
	total := 0.0
	for _, c := range ev.Cells {
		total += c.Value
	}
	if total == 0 {
		t.Fatal("hpm_events_total all zero on a traced run")
	}
	if _, ok := snap.Get("hpm_trace_dropped_total"); !ok {
		t.Fatal("traced run has no hpm_trace_dropped_total")
	}

	// The registry renders in every exporter without error.
	var b strings.Builder
	if err := metricreg.WriteProm(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cedar_ct_cycles ") {
		t.Fatalf("prom export missing ct_cycles:\n%s", b.String())
	}
}

// TestObservedRunSharesRegistryWithSeries: with Observe on, the live
// probes are registry metrics, the collector samples them under the
// same names (column order preserved), and the post-run registry holds
// both the live probes and the result metrics.
func TestObservedRunSharesRegistryWithSeries(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2,
		Observe: &obs.Options{SeriesInterval: 500}})
	names := run.Series.Names()
	if len(names) == 0 || names[0] != "concurrency" {
		t.Fatalf("series names = %v", names)
	}
	snap := run.Metrics().Snapshot()
	for _, n := range names {
		if _, ok := snap.Get(n); !ok {
			t.Fatalf("series probe %q missing from the registry", n)
		}
	}
	if _, ok := snap.Get("os_time_cycles"); !ok {
		t.Fatal("observed run registry missing result metrics")
	}
	if _, ok := snap.Get("obs_series_samples_total"); !ok {
		t.Fatal("observed run registry missing series drop accounting")
	}
}

// TestDroppedEventsAccounting: a trace buffer too small for the run
// reports its overflow through DroppedEvents and the registry.
func TestDroppedEventsAccounting(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2, TraceCapacity: 8})
	if run.DroppedEvents() == 0 {
		t.Fatal("tiny trace buffer dropped nothing")
	}
	snap := run.Metrics().Snapshot()
	if snap.Value("hpm_trace_dropped_total") != float64(run.Monitor.Dropped()) {
		t.Fatalf("registry drop count %g != monitor %d",
			snap.Value("hpm_trace_dropped_total"), run.Monitor.Dropped())
	}
}
