package main

import (
	"context"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestFaultWindowsFound(t *testing.T) {
	ws, err := faultWindows(perfect.FLO52(), arch.Cedar8, cedar.Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("no page-fault windows observed on a healthy run")
	}
	for i, w := range ws {
		if w.End < w.Start {
			t.Fatalf("window %d inverted: %+v", i, w)
		}
		if i > 0 && w.Start <= ws[i-1].End {
			t.Fatalf("windows %d and %d not disjoint ascending: %+v %+v", i-1, i, ws[i-1], w)
		}
	}
	// The ROADMAP kill time must land inside a discovered window — the
	// fuzzer aims where the bug actually was.
	const roadmapKill = sim.Time(76_414)
	hit := false
	for _, w := range ws {
		if roadmapKill >= w.Start && roadmapKill <= w.End {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("kill time %d outside every window %v", roadmapKill, ws)
	}
}

// TestShrinkDeadlock shrinks the kill-the-main-cluster deadlock and
// verifies the minimized scenario still deadlocks.
func TestShrinkDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays the deadlock watchdog repeatedly")
	}
	var plan faults.Plan
	for ce := 0; ce < arch.Cedar16.CEsPerCluster; ce++ {
		plan = append(plan, faults.Event{Kind: faults.CEFail, Target: ce, At: 50_000})
	}
	sc := &scenario.Scenario{Name: "kill", App: "FLO52", Config: arch.Cedar16.Name,
		Steps: 1, Scale: 1, Plan: plan, WallTol: 0.5}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	shrunk, runs, err := shrink(sc, 24)
	if err != nil {
		t.Fatal(err)
	}
	if runs < 2 {
		t.Fatalf("shrinker spent only %d runs", runs)
	}
	if shrunk.Expect != scenario.ExpectDeadlock {
		t.Fatalf("shrunk expectation %q, want deadlock", shrunk.Expect)
	}
	if len(shrunk.Plan) > len(sc.Plan) {
		t.Fatalf("shrinking grew the plan: %d -> %d events", len(sc.Plan), len(shrunk.Plan))
	}
	if _, _, err := scenario.Check(context.Background(), shrunk); err != nil {
		t.Fatalf("shrunk scenario no longer deadlocks: %v", err)
	}
	// A clean scenario refuses to shrink.
	ok, err := sc.WithPlan(faults.Plan{{Kind: faults.CEFail, Target: 5, At: 100_000}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := shrink(ok, 8); err == nil {
		t.Fatal("shrinking a clean scenario did not error")
	}
}
