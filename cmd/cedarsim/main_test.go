package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/scenario"
)

// inlineDoc is a scenario document carrying FLO52's committed workload
// as an inline workload: block.
func inlineDoc(t *testing.T, head string) string {
	t.Helper()
	wl, err := os.ReadFile("../../testdata/workloads/flo52.workload")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(head + "workload:\n")
	for _, l := range strings.Split(strings.TrimRight(string(wl), "\n"), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			b.WriteString("  " + l)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// parseScenario parses a scenario document, or the one-line form when
// in has no newline.
func parseScenario(t *testing.T, in string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.ParseLine(in)
	if strings.Contains(in, "\n") {
		sc, err = scenario.Parse("doc", []byte(in))
	}
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// A recorded run replays to the identical run whatever the app source:
// a gen: spec records as its spec, an inline workload as a workload:
// block (neither resolves by the app's name alone). The record pins the
// seed the run used and takes its name from the file.
func TestRecordReplayIdentical(t *testing.T) {
	fileSc := parseScenario(t, inlineDoc(t, "config: 8proc\nsteps: 1\nscale: 1\nplan: ce:1@50000\n"))
	genSc := parseScenario(t, "app=gen:seed=14,hot=1 config=8proc steps=1 plan=ce:1@50000")
	for _, c := range []struct {
		name, wantKey string
		sc            *scenario.Scenario
	}{
		{"gen", "app: gen:seed=14,hot=1\n", genSc},
		{"file", "workload:\n", fileSc},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, cfg, err := c.sc.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			orig, err := cedar.SimulateRunErr(app, cfg, c.sc.Options())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), c.name+scenario.Ext)
			if _, err := recordScenario(path, c.sc, err); err != nil {
				t.Fatal(err)
			}
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{c.wantKey, "name: " + c.name + "\n", "seed: "} {
				if !strings.Contains(string(doc), want) {
					t.Fatalf("recorded document lacks %q:\n%s", want, doc)
				}
			}
			sc, err := scenario.LoadFile(path)
			if err != nil {
				t.Fatalf("recorded document does not load: %v\n%s", err, doc)
			}
			if want := c.sc.Options().KernelSeed(app, cfg); sc.Seed != want {
				t.Fatalf("recorded seed %d, the run used %d", sc.Seed, want)
			}
			rep, _, err := scenario.Check(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := orig.StatfxText(), rep.StatfxText(); a != b {
				t.Fatalf("replay diverged from the recorded run:\n--- run ---\n%s--- replay ---\n%s", a, b)
			}
			if _, err := recordScenario(path, c.sc, nil); err == nil {
				t.Fatal("recording overwrote an existing file")
			}
		})
	}
}

// TestJobSpec pins what -server submits for a scenario. A gen: spec is
// the job's app however the scenario spells it, so one run has one
// cache address; the plain paper run marshals to exactly the warm
// resubmit scripts/serve_smoke.sh posts, so the two share a cache
// entry.
func TestJobSpec(t *testing.T) {
	doc := inlineDoc(t, "config: 8proc\nsteps: 1\n")
	for _, c := range []struct {
		name, in, want string
	}{
		{"registry", "app=FLO52 config=8proc steps=2 plan=",
			`{"type":"simulate","app":"FLO52","config":"8proc","steps":2}`},
		{"gen-app", "app=gen:seed=7 config=8proc plan=",
			`{"type":"simulate","app":"gen:seed=7","config":"8proc"}`},
		{"gen-workload", "name: g\nworkload: gen:seed=7\nconfig: 8proc\n",
			`{"type":"simulate","app":"gen:seed=7","config":"8proc"}`},
		{"fields", "app=OCEAN config=32proc steps=3 seed=9 plan=ce:1@76414 max_cycles=5000000",
			`{"type":"simulate","app":"OCEAN","config":"32proc","steps":3,"seed":9,"plan":"ce:1@76414","max_cycles":5000000}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := jobSpec(parseScenario(t, c.in))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.want {
				t.Fatalf("job spec\n got %s\nwant %s", got, c.want)
			}
		})
	}
	t.Run("inline-workload", func(t *testing.T) {
		sc := parseScenario(t, doc)
		spec, err := jobSpec(sc)
		if err != nil {
			t.Fatal(err)
		}
		if spec.App != "" || spec.Workload != sc.Workload || !strings.HasPrefix(spec.Workload, "workload: FLO52\n") {
			t.Fatalf("inline workload submitted as app %q, workload %q", spec.App, spec.Workload)
		}
		if _, err := spec.Validate(); err != nil {
			t.Fatalf("the service rejects the submitted spec: %v", err)
		}
	})
	// The service runs simulate jobs unscaled and expects them to
	// complete; anything else is refused, naming the reason.
	for in, reason := range map[string]string{
		"app=FLO52 config=8proc scale=2 plan=":                   "scale 2",
		"name: s\napp: FLO52\nconfig: scaled64\n":                "scale 2",
		"app=FLO52 config=8proc plan=ce:0@1e5 expect=deadlock":   "expect deadlock",
		"app=FLO52 config=8proc plan=ce:0@1e5 expect=error":      "expect error",
		"app=FLO52 config=8proc plan=ce:0@1e5 max_cycles=100000": "",
	} {
		_, err := jobSpec(parseScenario(t, in))
		switch {
		case reason == "" && err != nil:
			t.Errorf("%q refused: %v", in, err)
		case reason != "" && (err == nil || !strings.Contains(err.Error(), reason)):
			t.Errorf("%q: error %v, want one naming %q", in, err, reason)
		}
	}
}
