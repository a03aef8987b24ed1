package cedar_test

import (
	"testing"

	"repro/internal/scenario"
)

// TestCrossClusterLoopExitRace is the regression test for a deadlock in
// a healthy run (no fault plan). The main task used to keep its
// finished loop posted while it performed the final barrier-count
// access; a helper could join the finished loop in that window, post
// a cluster job, and then lose its workers to the runtime shutdown,
// ending in "helper.c1.ce0 waits on cond:cfrt.job.c1". The document is
// kept here rather than under testdata/scenarios so it does not join
// the committed scenario suite.
func TestCrossClusterLoopExitRace(t *testing.T) {
	const doc = `name: gen-r85-j5
app: gen:seed=206352002,phases=3-4,gran=1500-3000,pages=32-64,gm=0.1-0.2
config: 16proc
steps: 2
seed: 327739682585299938
metrics:
  - ct_cycles
  - os_breakdown
  - events
`
	sc, err := scenario.Parse("gen-r85-j5", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scenario.Run(sc, false)
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
}
