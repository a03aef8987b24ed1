// Package replay holds the two plan-space tools of the fault-scenario
// workflow: the schedule fuzzer (SweepTimes), which aims fail-stops at
// the page-fault windows of a healthy run, and the delta-debugging
// shrinker (Shrink), which minimizes a failing fault plan. Both edit
// only the fault plan; the scenario that carries the plan, its
// one-line and document forms, and the runner that replays it live in
// internal/scenario, and cmd/cedarfuzz ties them together.
package replay

import (
	"repro/internal/ddmin"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Shrink minimizes a failing fault plan with delta debugging: the plan
// is reduced ddmin-style (drop event subsets, largest chunks first)
// and the surviving events are then simplified one knob at a time
// (times rounded to coarser grids, slow-down factors and stall spans
// snapped to canonical values). A candidate is kept only when failing
// still returns true for it, so the result reproduces the same failure
// with the fewest, plainest injections.
//
// failing must be deterministic (replayed scenarios are) and should
// return true when the candidate reproduces the original failure
// class. maxRuns bounds the number of failing invocations (<= 0 means
// a default of 200). Shrink returns the minimized plan and the number
// of candidate runs spent; if the input itself does not fail, it is
// returned unchanged.
func Shrink(plan faults.Plan, failing func(faults.Plan) bool, maxRuns int) (faults.Plan, int) {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	runs := 0
	test := func(cand faults.Plan) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		return failing(cand)
	}
	if !test(plan) {
		return plan, runs
	}
	plan = faults.Plan(ddmin.Minimize(plan, func(cand []faults.Event) bool {
		return test(cand)
	}))
	return simplifyEvents(plan, test), runs
}

// simplifyEvents canonicalizes each surviving event's knobs while the
// failure keeps reproducing: times snap to coarser grids, factors to
// small integers, spans to the parser default.
func simplifyEvents(plan faults.Plan, test func(faults.Plan) bool) faults.Plan {
	plan = append(faults.Plan(nil), plan...)
	try := func(i int, ev faults.Event) bool {
		if ev == plan[i] {
			return false
		}
		cand := append(faults.Plan(nil), plan...)
		cand[i] = ev
		if test(cand) {
			plan = cand
			return true
		}
		return false
	}
	for i := range plan {
		for _, grid := range []sim.Time{100_000, 10_000, 1_000} {
			ev := plan[i]
			ev.At = ev.At / grid * grid
			try(i, ev)
		}
		if plan[i].Factor > 2 {
			ev := plan[i]
			ev.Factor = 2
			try(i, ev)
		}
		if plan[i].Span > 0 && plan[i].Span != faults.DefaultLockSpan {
			ev := plan[i]
			ev.Span = faults.DefaultLockSpan
			try(i, ev)
		}
	}
	return plan
}
