package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/serve"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummaryReportsTailWithItsSampleCount(t *testing.T) {
	var p pass
	for i := 1; i <= 100; i++ {
		p.samples = append(p.samples, sample{latency: time.Duration(i) * time.Millisecond, sims: 1})
	}
	p.wall = time.Second
	s := summarize(p)
	if s.tailName != "p90=0.0901s" {
		t.Errorf("tail = %q, want p90=0.0901s", s.tailName)
	}
	if math.Abs(s.latP50-0.0505) > 1e-12 || math.Abs(s.runP50-0.0505) > 1e-12 {
		t.Errorf("p50 = %v, run p50 = %v; want 0.0505", s.latP50, s.runP50)
	}
	if s.jobsPerS != 100 || s.simsPerS != 100 {
		t.Errorf("jobs/s = %v, sims/s = %v; want 100", s.jobsPerS, s.simsPerS)
	}
}

func TestAggregateTopSumsSelfTimePerLayer(t *testing.T) {
	f, err := os.Open("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := aggregateTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"gmem":          0.27,
		"calendar":      0.26,
		"runtime.sched": 0.11 + 0.11 + 0.08,
		"runtime.other": 0.08 + 0.01,
		"network":       0.05,
		"sim":           0.04,
		"other_repro":   0.03,
		"perfect":       0.02,
		"runtime.gc":    0.02 + 0.01,
		"cedar":         0.01,
		"stdlib":        0.01,
		"bench":         0.01,
		"cfrt":          0,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("bucket %s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected bucket %s = %v", k, got[k])
		}
	}
}

func TestAggregateTopRejectsOutputWithoutTable(t *testing.T) {
	if _, err := aggregateTop(strings.NewReader("no profile here\n")); err == nil {
		t.Fatal("want an error for output without a flat/cum table")
	}
}

func TestDriveCountsErroringAndRefusedJobsAsFailed(t *testing.T) {
	// A fake service: every third submission is refused, every third
	// job fails, the rest succeed.
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 3 {
		case 0:
			w.WriteHeader(http.StatusTooManyRequests)
		case 1:
			w.Write([]byte(`{"id":"ok","state":"done","cache_hit":true}`))
		case 2:
			w.Write([]byte(`{"id":"bad","state":"done","cache_hit":true}`))
		}
	})
	mux.HandleFunc("GET /jobs/ok/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("payload"))
	})
	mux.HandleFunc("GET /jobs/bad/result", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	c := newClient(hs.URL, 1)
	defer c.close()

	samples := drive(1, time.Now().Add(time.Minute), 9, func(i int) sample {
		_, err := c.run(serve.JobSpec{Type: serve.TypeBench, Bench: "x"}, nil)
		return sample{err: err}
	})
	r := &result{untraced: pass{samples: samples}}
	attempted, failed := r.counts()
	if attempted != 9 || failed != 6 {
		t.Fatalf("attempted %d, failed %d; want 9 and 6", attempted, failed)
	}
	if c.refused() != 3 {
		t.Errorf("refused = %d, want 3", c.refused())
	}
	refusals := 0
	for _, s := range samples {
		if errors.Is(s.err, errRefused) {
			refusals++
		}
	}
	if refusals != 3 {
		t.Errorf("%d samples carry errRefused, want 3", refusals)
	}
	if !r.correct() {
		t.Error("errored and refused ops are failed, not wrong outputs")
	}
	r.untraced.samples[0].err = errWrongOutput
	if r.correct() {
		t.Error("a run with a wrong output reports correct")
	}
}

func TestDriveStopsHandingOutOpsAtTheDeadline(t *testing.T) {
	samples := drive(2, time.Now().Add(-time.Second), 5, func(int) sample {
		t.Error("op started after the deadline")
		return sample{}
	})
	if len(samples) != 0 {
		t.Fatalf("%d samples after the deadline, want 0", len(samples))
	}
}

func TestSeedReachesGeneratedInputsOnly(t *testing.T) {
	a, err := genJob(1, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := genJob(1, 3, 2, nil)
	b, _ := genJob(2, 3, 2, nil)
	if a != again {
		t.Error("the same seed generated different jobs")
	}
	if a.doc == b.doc {
		t.Error("different seeds generated the same job")
	}
	if !strings.Contains(a.doc, "\nseed: ") {
		t.Error("a non-zero workload seed does not reach the kernel seed")
	}
	zero, _ := genJob(0, 3, 2, nil)
	if strings.Contains(zero.doc, "\nseed: ") {
		t.Error("workload seed 0 must keep the facade's derived kernel seeds")
	}
	if kernelSeed(0, 1) != 0 || kernelSeed(5, 1) == 0 || kernelSeed(5, 1) == kernelSeed(6, 1) {
		t.Error("kernelSeed must be 0 at seed 0 and seed-dependent otherwise")
	}

	// The server's configuration is the same at every seed.
	s1 := newServedJobs(1, "x").(*servedJobs)
	s2 := newServedJobs(2, "x").(*servedJobs)
	if s1.clients != s2.clients {
		t.Error("program configuration depends on the seed")
	}

	// Micro-timer inputs are drawn from the seed too.
	r1 := drawReservations(1, 101, 4, 8, arch.Scaled256)
	r2 := drawReservations(2, 101, 4, 8, arch.Scaled256)
	if r1[0] == r2[0] && r1[1] == r2[1] && r1[2] == r2[2] {
		t.Error("micro-timer inputs do not depend on the seed")
	}
}

// TestServedJobsConcurrentClients drives the served workload with its
// concurrent clients for a short window, so the race detector sees the
// shared schedule, result maps, client counters and tracer.
func TestServedJobsConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The workload reads the committed inputs relative to the
	// repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	w := newServedJobs(3, t.TempDir()).(*servedJobs)
	tr := &tracer{on: true}
	if err := w.setup(tr); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	samples := w.measure(time.Now().Add(2*time.Second), tr)
	if len(samples) == 0 {
		t.Fatal("no ops ran")
	}
	for _, s := range samples {
		if s.err != nil {
			t.Errorf("op %s: %v", s.key, s.err)
		}
	}
	if tr.totals()["serve.submit"] == 0 {
		t.Error("no serve.submit spans recorded")
	}
}
