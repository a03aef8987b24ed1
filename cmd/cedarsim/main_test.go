package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/scenario"
)

// A recorded fault run replays to the identical run whatever the app
// source: a gen: spec records as its spec, a workload file as an
// inline workload: block (neither resolves by the app's name alone).
func TestRecordReplayIdentical(t *testing.T) {
	plan, err := faults.Parse("ce:1@50000")
	if err != nil {
		t.Fatal(err)
	}
	opts := cedar.Options{Steps: 1, Faults: plan}
	fileApp, err := perfect.LoadWorkload("../../testdata/workloads/flo52.workload")
	if err != nil {
		t.Fatal(err)
	}
	genApp, err := (perfect.Resolver{}).Resolve("gen:seed=14,hot=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, source, wantKey string
		app                   perfect.App
	}{
		{"gen", "gen:seed=14,hot=1", "app: gen:seed=14,hot=1\n", genApp},
		{"file", string(perfect.PrintWorkload(fileApp)), "workload:\n", fileApp},
	} {
		t.Run(c.name, func(t *testing.T) {
			orig, err := cedar.SimulateRunErr(c.app, arch.Cedar8, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), c.name+scenario.Ext)
			if _, err := recordScenario(path, c.source, arch.Cedar8, opts, err); err != nil {
				t.Fatal(err)
			}
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(doc), c.wantKey) {
				t.Fatalf("recorded document lacks %q:\n%s", c.wantKey, doc)
			}
			sc, err := scenario.LoadFile(path)
			if err != nil {
				t.Fatalf("recorded document does not load: %v\n%s", err, doc)
			}
			rep, _, err := scenario.Check(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := orig.StatfxText(), rep.StatfxText(); a != b {
				t.Fatalf("replay diverged from the recorded run:\n--- run ---\n%s--- replay ---\n%s", a, b)
			}
			if _, err := recordScenario(path, c.source, arch.Cedar8, opts, nil); err == nil {
				t.Fatal("recording overwrote an existing file")
			}
		})
	}
}
