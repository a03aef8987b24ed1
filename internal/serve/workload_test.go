package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/scenario"
)

// inlineWorkloadDoc is a small workload document for inline-submission
// tests — the same app a gen: spec or a client-side .workload file
// would carry over the wire.
const inlineWorkloadDoc = `workload: wiretest
steps: 2
data_words: 8192
cache_hit_ratio: 0.9
phase: serial init
  work: 2000
  gm_words: 16
phase: xdoall sweep
  inner: 64
  work: 500
  gm_words: 4
`

// A simulate job can carry its application as an inline workload
// document: the result matches the direct facade run byte for byte,
// a resubmission of the same document is a warm cache hit, and any
// document edit is a distinct cache key.
func TestSimulateJobInlineWorkload(t *testing.T) {
	app, err := perfect.ParseWorkload([]byte(inlineWorkloadDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, app, arch.Cedar8, cedar.Options{Steps: 2}).StatfxText()

	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)

	spec := JobSpec{Type: TypeSimulate, Workload: inlineWorkloadDoc, Config: "8proc", Steps: 2}
	status, sr, raw := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("cold submit: status %d (%s)", status, raw)
	}
	v := waitTerminal(t, ts, sr.ID)
	if v.State != StateDone || v.CacheHit {
		t.Fatalf("cold job: state %s cache_hit %v (err %q)", v.State, v.CacheHit, v.Error)
	}
	if code, got := result(t, ts, sr.ID); code != 200 || got != want {
		t.Fatalf("inline-workload result differs from direct run (status %d):\n%s", code, got)
	}

	// Warm resubmit of the identical document.
	status, sr2, raw := submit(t, ts, spec)
	if status != http.StatusOK || !sr2.CacheHit {
		t.Fatalf("warm submit: status %d body %s", status, raw)
	}
	if _, got := result(t, ts, sr2.ID); got != want {
		t.Fatal("cached inline-workload result differs")
	}

	// One knob changed: the document text is the identity, so this
	// must miss the cache.
	edited := spec
	edited.Workload = strings.Replace(inlineWorkloadDoc, "work: 500", "work: 501", 1)
	if status, sr3, _ := submit(t, ts, edited); status != http.StatusAccepted {
		t.Fatalf("edited workload unexpectedly hit the cache (status %d)", status)
	} else {
		waitTerminal(t, ts, sr3.ID)
	}
}

// A gen: spec travels as the workload source too, and resolves
// server-side to the same deterministic app.
func TestSimulateJobGenWorkload(t *testing.T) {
	app, err := (perfect.Resolver{}).Resolve("gen:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, app, arch.Cedar8, cedar.Options{Steps: 2}).StatfxText()

	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)

	spec := JobSpec{Type: TypeSimulate, Workload: "gen:seed=7", Config: "8proc", Steps: 2}
	status, sr, raw := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	waitTerminal(t, ts, sr.ID)
	if _, got := result(t, ts, sr.ID); got != want {
		t.Fatalf("gen-workload result differs from direct run:\n%s", got)
	}
}

// Bad workload submissions are rejected at submit time with a clear
// message: both sources, neither source on a sweep, and file paths
// (the server must never read server-side files for a remote caller).
func TestWorkloadBadRequests(t *testing.T) {
	_, ts := newTestServer(t, fastCfg(), nil)
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Type: TypeSimulate, App: "FLO52", Workload: inlineWorkloadDoc, Config: "8proc"},
			"mutually exclusive"},
		{JobSpec{Type: TypeSimulate, Workload: "apps.workload", Config: "8proc"},
			"not allowed here"},
		{JobSpec{Type: TypeSweep},
			"missing app (or workload)"},
		{JobSpec{Type: TypeSimulate, Workload: "steps: 2\nbogus: 1\n", Config: "8proc"},
			"unknown key"},
	}
	for _, tc := range cases {
		status, _, raw := submit(t, ts, tc.spec)
		if status != http.StatusBadRequest || !strings.Contains(raw, tc.want) {
			t.Errorf("spec %+v: status %d body %q, want 400 containing %q", tc.spec, status, raw, tc.want)
		}
	}
}

// A bench job whose scenario document carries an inline workload:
// block returns the capture a direct scenario run produces, byte for
// byte, and warm-resubmits from the cache — the cross-tool contract
// with cedarbench.
func TestBenchJobInlineWorkload(t *testing.T) {
	doc := "name: bench-inline\nconfig: 8proc\nsteps: 2\nworkload:\n"
	for _, line := range strings.Split(strings.TrimRight(inlineWorkloadDoc, "\n"), "\n") {
		doc += "  " + line + "\n"
	}
	sc, err := scenario.Parse("bench", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scenario.RunCtx(context.Background(), sc, false)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := scenario.EncodeCapture(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)

	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)

	spec := JobSpec{Type: TypeBench, Bench: doc}
	status, sr, raw := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", status, raw)
	}
	v := waitTerminal(t, ts, sr.ID)
	if v.State != StateDone {
		t.Fatalf("bench job: state %s (err %q)", v.State, v.Error)
	}
	if code, got := result(t, ts, sr.ID); code != 200 || got != want {
		t.Fatalf("bench inline-workload capture differs from direct run (status %d):\n%s", code, got)
	}

	status, sr2, _ := submit(t, ts, spec)
	if status != http.StatusOK || !sr2.CacheHit {
		t.Fatalf("warm bench submit: status %d", status)
	}
	if _, got := result(t, ts, sr2.ID); got != want {
		t.Fatal("cached bench capture differs")
	}
}
