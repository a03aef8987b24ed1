package cedar

// BenchmarkBigConfig measures intra-run speed: events per second of
// wall-clock time while simulating ONE big machine, as opposed to
// BenchmarkPaperSweep's many-small-simulations throughput. A single
// large run is the wall-clock floor for every interactive use (no
// sweep parallelism can hide it), so this benchmark is the trend line
// for the calendar-tiered event queue and the struct-of-arrays machine
// state. The committed BENCH_bigconfig.json baseline is gated by
// cedarbenchdiff alongside the kernel micro-benchmarks.

import (
	"bufio"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// BenchmarkBigConfig runs FLO52, weak-scaled to the machine, on the
// Scaled256 configuration — the dense-event regime the paper's
// Section-7 decomposition needs at scale: 256 CE processes, 256 memory
// modules, and a two-stage network of 16x16 switches whose port
// reservations produce the per-cycle event band the tiered queue is
// built for. The reported events/sec metric is kernel dispatch
// throughput over the whole run (setup included), which is what an
// interactive caller experiences.
func BenchmarkBigConfig(b *testing.B) {
	app := perfect.FLO52().Scaled(perfect.ScaleFactorFor(arch.Scaled256.CEs()))
	var events uint64
	for i := 0; i < b.N; i++ {
		run := mustRun(b, app, arch.Scaled256, Options{})
		if run.Result.CT == 0 {
			b.Fatal("no completion time")
		}
		events += run.Machine.Kernel.EventsFired()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// seedEventsPerSec extracts BenchmarkBigConfig's events/sec metric from
// the committed pre-refactor capture (BENCH_bigconfig_seed.json, a
// go test -json log recorded before the tiered queue and the
// struct-of-arrays machine state landed).
func seedEventsPerSec(t *testing.T, path string) float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	metric := regexp.MustCompile(`([0-9.]+(?:e\+?[0-9]+)?) events/sec`)
	var last float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Test   string `json:"Test"`
			Output string `json:"Output"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil ||
			ev.Action != "output" || ev.Test != "BenchmarkBigConfig" {
			continue
		}
		if m := metric.FindStringSubmatch(ev.Output); m != nil {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil && v > 0 {
				last = v
			}
		}
	}
	if last == 0 {
		t.Fatalf("%s: no BenchmarkBigConfig events/sec metric found", path)
	}
	return last
}

// TestBigConfigSpeedup is the intra-run speedup gate: when
// CEDAR_SPEEDUP_GATE=1 (the CI benchmark job, and this PR's own
// acceptance run), one Scaled256 simulation through the tiered queue
// and struct-of-arrays machine state must dispatch events at least
// 1.3x as fast as the committed pre-refactor baseline. The test is
// env-gated because the baseline was recorded on one machine class;
// absolute events/sec on an arbitrary developer laptop proves nothing.
func TestBigConfigSpeedup(t *testing.T) {
	if os.Getenv("CEDAR_SPEEDUP_GATE") != "1" {
		t.Skip("speedup gate disabled; set CEDAR_SPEEDUP_GATE=1 to run")
	}
	const minSpeedup = 1.3
	baseline := seedEventsPerSec(t, "BENCH_bigconfig_seed.json")
	app := perfect.FLO52().Scaled(perfect.ScaleFactorFor(arch.Scaled256.CEs()))
	measure := func() float64 {
		start := time.Now()
		run := mustRun(t, app, arch.Scaled256, Options{})
		if run.Result.CT == 0 {
			t.Fatal("no completion time")
		}
		return float64(run.Machine.Kernel.EventsFired()) / time.Since(start).Seconds()
	}
	measure() // warm-up: page in code and stabilize the heap
	best := 0.0
	for i := 0; i < 3; i++ {
		if v := measure(); v > best {
			best = v
		}
	}
	speedup := best / baseline
	t.Logf("Scaled256 single run: %.0f events/sec vs pre-refactor %.0f (%.2fx)", best, baseline, speedup)
	if speedup < minSpeedup {
		t.Fatalf("intra-run speedup %.2fx < %.2fx (measured %.0f events/sec, baseline %.0f)",
			speedup, minSpeedup, best, baseline)
	}
}
