package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"
	"testing"
)

// wireVersion is the model-output version the wire golden keys under.
const wireVersion = "wire-golden"

// wireGolden pins the service's wire for one fixed spec of every job
// kind: the result-cache address (cacheKey(v).ID()), the sha256 of the
// result payload and the progress lines (sorted: sweep and corpus
// report from concurrent runs). A refactor of how jobs resolve and run
// must leave all three unchanged, or every cached result and every
// client comparing payloads silently breaks.
var wireGolden = []struct {
	name     string
	spec     JobSpec
	key      string
	payload  string
	progress []string
	err      bool // the job fails; its payload is still pinned
}{
	{
		name: "simulate",
		spec: JobSpec{Type: TypeSimulate, App: "FLO52", Config: "8proc", Steps: 1,
			Seed: 3327910339796038169, Plan: "ce:1@76414", MaxCycles: 1_000_000_000},
		key:      "e5e595c7d77addfe28ccb64361197242e8465e56f85284a9776e6f12bed21982",
		payload:  "ff7c4bb869db06a8e82020049a9ea45635570325f90f8c44c0d010485aefd4fb",
		progress: []string{"simulated FLO52 on 8proc: ct=557048"},
	},
	{
		name: "sweep",
		// cedar4 is an alias: the payload names the canonical member.
		spec: JobSpec{Type: TypeSweep, Workload: "gen:seed=5", Configs: []string{"1proc", "cedar4"},
			Steps: 1, Seed: 7},
		key:      "10b556d67e9db8fd3aa977791dd0f3b5b21cf4569f6c158055408cf3936009fd",
		payload:  "354b08f841f98bd7d2f13a1d1114b1c728581d5c2390069320dc2157626a923e",
		progress: []string{"swept gen5 on 1proc: ct=65422687", "swept gen5 on 4proc: ct=20437829"},
	},
	{
		name: "replay",
		// The spec's budget runs alongside the line; the payload names
		// the line as submitted.
		spec:     JobSpec{Type: TypeReplay, Scenario: okScenario, MaxCycles: 1_000_000_000},
		key:      "08532026c1cff8e9b669115649b4378b02e7fe9645755e39fbe2a1be548b11c0",
		payload:  "d8d68892381dcf4523798fcdea193228186ce9a0f4dddf6b2d570b9414e22de0",
		progress: []string{"replayed app=FLO52 config=8proc steps=1 seed=3327910339796038169 plan=ce:1@76414: outcome ok"},
	},
	{
		name: "corpus",
		spec: JobSpec{Type: TypeCorpus, Corpus: []string{
			okScenario,
			"app=FLO52 config=8proc steps=1 seed=3327910339796038169 plan=ce:4x1.25@47085,ce:1@76414,module:3x2@23648",
			okScenario + " expect=deadlock",
		}},
		key:      "ef5b8befb2c94746767354c2fc557f4731f9c1ac1068446ab9c78c462286665a",
		payload:  "b6e40be7944ba6f603fdc6e5e17faf6adcf1856d7d933a1ac7021b52bf941052",
		progress: []string{"corpus 1/3: ok", "corpus 2/3: ok", "corpus 3/3: FAIL (outcome ok, want deadlock)"},
		err:      true,
	},
	{
		name: "bench",
		spec: JobSpec{Type: TypeBench, MaxCycles: 1_000_000_000,
			Bench: "name: wire-bench\nworkload: gen:seed=9\nconfig: 4proc\nsteps: 1\nplan: module:2x2@1000\n" +
				"metrics:\n  - ct_cycles\n  - os_breakdown\n  - concurrency\n  - events\n"},
		key:      "530829d5105874f73669838f95910f112cf16ae850eee77678defc5283e094b8",
		payload:  "8dd74d265a8ce703c1808ad796cd9fd8de4d39cc1f7578dbe0f3a300e71f6769",
		progress: []string{"bench wire-bench: 12 record(s)"},
	},
}

func TestWireGolden(t *testing.T) {
	for _, c := range wireGolden {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			r, err := spec.Validate()
			if err != nil {
				t.Fatal(err)
			}
			if key := spec.cacheKey(wireVersion).ID(); key != c.key {
				t.Errorf("cache key %s, want %s", key, c.key)
			}
			var mu sync.Mutex
			var progress []string
			payload, err := spec.execute(context.Background(), r, func(msg string) {
				mu.Lock()
				progress = append(progress, msg)
				mu.Unlock()
			})
			if (err != nil) != c.err {
				t.Fatalf("execute error = %v, want error %v", err, c.err)
			}
			sum := sha256.Sum256(payload)
			if got := hex.EncodeToString(sum[:]); got != c.payload {
				t.Errorf("payload sha256 %s, want %s:\n%s", got, c.payload, payload)
			}
			slices.Sort(progress)
			if !slices.Equal(progress, c.progress) {
				t.Errorf("progress %q, want %q", progress, c.progress)
			}
		})
	}
}
