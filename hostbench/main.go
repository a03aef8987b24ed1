// Command hostbench is the repository's same-host benchmark. It drives
// the simulator only through its public packages, on one of three
// workloads, times it in host time, checks every output, and prints one
// JSON result line last:
//
//	bash hostbench/run.sh --workload big-run --seed 0 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the measured time is split into an untraced and a traced
// half, and the result carries the per-layer metrics: CPU-profile self
// time per package, spans around the benchmark's calls into each layer,
// exact simulated work counts, and the layer micro-timers.
//
// Run it from the repository root: it reads the committed references
// (testdata/golden/tables.csv, testdata/scenarios, BENCH_scenarios.json
// and hostbench/testdata) relative to the working directory, and keeps
// its scratch files under .bench_build.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not decide the figure.
const setups = 3

// scratchRoot holds everything the benchmark writes.
const scratchRoot = ".bench_build"

// workload is one set of inputs the benchmark runs, with the program
// state set-up built for it.
type workload interface {
	// setup does everything before the first timed op: input generation
	// and resolution, reference loading, server start, one untimed
	// warm-up op.
	setup(tr *tracer) error
	// measure runs closed-loop ops until the deadline passes and
	// returns one sample per op attempted. Every call replays the same
	// op sequence from its start.
	measure(until time.Time, tr *tracer) []sample
	// workers is how many ops run at once.
	workers() int
	// report adds the workload's own figures (accuracy, cache and
	// service metrics) to r.
	report(r *result)
	close()
}

var workloads = map[string]func(seed int64, scratch string) workload{
	"big-run":     newBigRun,
	"paper-sweep": newPaperSweep,
	"served-jobs": newServedJobs,
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "big-run, paper-sweep or served-jobs")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed; 0 keeps the facade's derived seeds")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: untraced and traced halves, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want big-run, paper-sweep or served-jobs)", o.workload)
	}
	if o.seed < 0 {
		return o, fmt.Errorf("negative seed %d", o.seed)
	}
	if o.seconds < 2 {
		return o, fmt.Errorf("--seconds %d: want at least 2", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	res, err := measureWorkload(o, scratch)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	res.print(stdout, o)
	if !res.correct() {
		return 1
	}
	return 0
}

// measureWorkload sets the workload up setups times, then measures it
// (untraced, or untraced and traced halves).
func measureWorkload(o options, scratch string) (*result, error) {
	tr := &tracer{}
	var w workload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		dir := fmt.Sprintf("%s/setup-%d", scratch, i)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		w = workloads[o.workload](o.seed, dir)
		// The traced pass records the spans of its own set-up.
		tr.on = o.trace && i == setups-1
		start := time.Now()
		if err := w.setup(tr); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer w.close()
	tr.on = false

	r := &result{workload: o.workload, host: fingerprint(), setupS: median(setupTimes)}
	if !o.trace {
		r.untraced = window(w, time.Duration(o.seconds)*time.Second, nil, "")
		w.report(r)
		r.checkErr = checkWork(r.passes())
		return r, nil
	}

	half := time.Duration(o.seconds) * time.Second / 2
	r.untraced = window(w, half, nil, "")
	profile := scratch + "/cpu.pprof"
	tr.on = true
	r.traced = window(w, half, tr, profile)
	tr.on = false
	if r.traced.err != nil {
		return nil, r.traced.err
	}
	var err error
	if r.buckets, err = profileBuckets(profile); err != nil {
		return nil, err
	}
	r.spans = tr.totals()
	w.report(r)
	if r.checkErr == nil {
		r.checkErr = checkWork(r.passes())
	}
	r.micro = microTimers(o.seed)
	return r, nil
}

// pass is one measured window of a workload.
type pass struct {
	samples  []sample
	wall     time.Duration // first op start to last op end
	cpu      time.Duration // process CPU time over the window
	steal    time.Duration // hypervisor steal over the window, all CPUs
	workers  int
	allocB   uint64 // bytes allocated over the window
	peakRSSB uint64
	err      error // the window could not be measured (profiling failed)
}

// window measures one closed-loop window of length d. With a profile
// path it runs under a CPU profile written there.
func window(w workload, d time.Duration, tr *tracer, profile string) pass {
	var p pass
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0, steal0 := processCPU(), stealTime()
	var stop func() error
	if profile != "" {
		var err error
		if stop, err = startProfile(profile); err != nil {
			p.err = err
			return p
		}
	}
	start := time.Now()
	p.samples = w.measure(start.Add(d), tr)
	p.wall = time.Since(start)
	if stop != nil {
		if err := stop(); err != nil {
			p.err = err
		}
	}
	p.cpu, p.steal = processCPU()-cpu0, stealTime()-steal0
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.peakRSSB = peakRSS()
	p.workers = w.workers()
	return p
}

// result is everything one run reports.
type result struct {
	workload string
	host     host
	setupS   float64
	untraced pass
	traced   pass
	buckets  map[string]float64 // profile self seconds per layer bucket
	spans    map[string]float64 // span seconds per span name
	micro    map[string]float64
	work     work // exact simulated work of the workload's fixed op set
	// extra holds the workload's own figures (see extraMetrics), set
	// by report.
	extra    map[string]float64
	checkErr error // a whole-run output check failed
}

func (r *result) set(name string, v float64) {
	if r.extra == nil {
		r.extra = map[string]float64{}
	}
	r.extra[name] = v
}

func (r *result) passes() []pass {
	if r.traced.samples != nil {
		return []pass{r.untraced, r.traced}
	}
	return []pass{r.untraced}
}

// attempted and failed count ops over every measured window; an op
// that errored, was refused, or returned a wrong output is failed.
func (r *result) counts() (attempted, failed int) {
	for _, p := range r.passes() {
		for _, s := range p.samples {
			attempted++
			if s.err != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// failures lists the distinct op errors, for the report.
func (r *result) failures() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.passes() {
		for _, s := range p.samples {
			if s.err != nil && !seen[s.err.Error()] {
				seen[s.err.Error()] = true
				out = append(out, s.err.Error())
			}
		}
	}
	if r.checkErr != nil {
		out = append(out, r.checkErr.Error())
	}
	sort.Strings(out)
	return out
}

// correct reports that at least one op succeeded and no op returned a
// wrong output. Ops that errored or were refused count as failed but
// leave the outputs correct.
func (r *result) correct() bool {
	attempted, failed := r.counts()
	if attempted == failed || r.checkErr != nil {
		return false
	}
	for _, p := range r.passes() {
		for _, s := range p.samples {
			if errors.Is(s.err, errWrongOutput) {
				return false
			}
		}
	}
	return true
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of the untraced window.
func (r *result) endToEnd() map[string]metric {
	e := summarize(r.untraced)
	return map[string]metric{
		"setup_s":           {r.setupS, "s"},
		"run_p50_s":         {e.runP50, "s"},
		"events_per_s":      {e.eventsPerS, "events/s"},
		"sims_per_s":        {e.simsPerS, "sims/s"},
		"jobs_per_s":        {e.jobsPerS, "jobs/s"},
		"job_latency_p50_s": {e.latP50, "s"},
		"job_latency_p90_s": {e.latP90, "s"},
		"alloc_mb_per_op":   {e.allocMBPerOp, "MB"},
		"peak_rss_mb":       {float64(r.untraced.peakRSSB) / 1e6, "MB"},
	}
}

// perLayer computes the per-layer metrics of a traced run.
func (r *result) perLayer() map[string]metric {
	m := map[string]metric{}
	t := r.traced
	ops := float64(len(t.samples))
	if ops == 0 {
		ops = 1
	}
	for _, b := range bucketNames {
		m[b+".self_s"] = metric{r.buckets[b] / ops, "s"}
	}
	for _, name := range spanNames {
		m[name+"_s"] = metric{r.spans[name] / ops, "s"}
	}
	for _, name := range setupSpanNames {
		m[name+"_s"] = metric{r.spans[name], "s"}
	}
	for _, f := range r.work.fields() {
		m[f.name] = metric{f.value, f.unit}
	}
	for name, v := range r.micro {
		unit := "ns"
		if strings.HasSuffix(name, "_allocs") {
			unit = "allocs"
		}
		m[name] = metric{v, unit}
	}
	m["engine.cpu_util"] = metric{cpuUtil(r.untraced), "fraction"}
	m["trace.overhead_frac"] = metric{overhead(r.untraced, r.traced), "fraction"}
	m["serve.hit_latency_p50_s"] = metric{summarize(t).hitP50, "s"}
	for _, x := range extraMetrics {
		m[x.name] = metric{r.extra[x.name], x.unit}
	}
	return m
}

// cpuUtil is process CPU seconds over wall seconds times workers.
func cpuUtil(p pass) float64 {
	if p.wall <= 0 || p.workers <= 0 {
		return 0
	}
	return p.cpu.Seconds() / (p.wall.Seconds() * float64(p.workers))
}

// overhead is the traced window's median simulating-op latency over the
// untraced window's, minus one.
func overhead(untraced, traced pass) float64 {
	u, t := summarize(untraced).runP50, summarize(traced).runP50
	if u == 0 {
		return 0
	}
	return t/u - 1
}

func (r *result) print(w io.Writer, o options) {
	attempted, failed := r.counts()
	fmt.Fprintf(w, "hostbench workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	hostJSON, _ := json.Marshal(r.host)
	fmt.Fprintf(w, "host %s\n", hostJSON)
	e := summarize(r.untraced)
	fmt.Fprintf(w, "samples %d (simulating %d, cache hits %d); tail percentile with >=10 samples beyond: %s\n",
		len(r.untraced.samples), e.simOps, e.hits, e.tailName)
	var lat []float64
	for _, s := range r.untraced.samples {
		if s.err == nil {
			lat = append(lat, s.latency.Seconds())
		}
	}
	u := r.untraced
	fmt.Fprintf(w, "op latency s: min %.4g q1 %.4g median %.4g q3 %.4g max %.4g; process CPU %.4g s/op; host steal %.1f%% of CPU time over %.4g s\n",
		percentile(lat, 0), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75), percentile(lat, 100),
		u.cpu.Seconds()/float64(len(lat)), 100*u.steal.Seconds()/(u.wall.Seconds()*float64(runtime.NumCPU())), u.wall.Seconds())
	for _, line := range r.e2eLines(e, attempted, failed) {
		fmt.Fprintln(w, line)
	}
	for _, f := range r.failures() {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if n := r.work.AccountViolations; n > 0 {
		fmt.Fprintf(w, "DEFECT accounting conservation: %d CE(s) per op set account for a total other than the completion time\n", n)
	}

	var metrics map[string]metric
	if o.trace {
		metrics = r.perLayer()
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "layer %-28s %.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
		}
	} else {
		metrics = r.endToEnd()
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), attempted, failed, metrics})
	fmt.Fprintf(w, "%s\n", out)
}

// e2eLines renders every end-to-end figure of the benchmark, including
// the ones only some workloads define, for the human-readable report.
func (r *result) e2eLines(e summary, attempted, failed int) []string {
	var lines []string
	for name, m := range r.endToEnd() {
		lines = append(lines, fmt.Sprintf("e2e %-20s %.6g %s", name, m.Value, m.Unit))
	}
	hit := "n/a"
	if e.hits > 0 {
		hit = fmt.Sprintf("%.6g s", e.hitP50)
	}
	lines = append(lines, "e2e hit_latency_p50_s   "+hit)
	acc := "n/a"
	if v, ok := r.extra["perfect.table1_speedup_err"]; ok {
		acc = fmt.Sprintf("%.6g fraction", v)
	}
	lines = append(lines, "e2e table1_speedup_err  "+acc)
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	lines = append(lines, fmt.Sprintf("e2e failed_frac         %.6g fraction (%d of %d)", frac, failed, attempted))
	sort.Strings(lines)
	return lines
}

// spanNames are the spans recorded around the benchmark's calls into a
// layer during measured ops, reported as seconds per op.
var spanNames = []string{"cedar.simulate", "metricreg.render", "serve.submit", "serve.fetch"}

// setupSpanNames are the spans of input parsing and resolution,
// reported as total seconds over the traced set-up and window.
var setupSpanNames = []string{"scenario.parse", "perfect.resolve"}

// extraMetrics are the per-layer figures a workload reports itself;
// workloads that do not exercise the layer report 0.
var extraMetrics = []struct{ name, unit string }{
	{"perfect.table1_speedup_err", "fraction"},
	{"resultcache.hit_ratio", "fraction"},
	{"resultcache.corrupt", "count"},
	{"serve.queue_wait_s", "s"},
	{"serve.execute_s", "s"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
}

// errWrongOutput marks an op whose output failed a check.
var errWrongOutput = errors.New("wrong output")
