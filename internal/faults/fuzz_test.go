package faults

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse checks the fault-plan parser on arbitrary specs, seeded
// from every plan: line of the committed scenarios and fault corpus. A
// spec must never panic the parser; an accepted plan must render back
// to itself (Parse(p.String()) == p) and describe a schedulable fault:
// times >= 0, finite factors in [1, MaxFactor], lock spans in
// [1, MaxSpan].
func FuzzParse(f *testing.F) {
	seeds := 0
	for _, dir := range []string{"../../testdata/scenarios", "../../testdata/faultcorpus"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.scenario"))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			file, err := os.Open(path)
			if err != nil {
				f.Fatal(err)
			}
			sc := bufio.NewScanner(file)
			for sc.Scan() {
				if plan, ok := strings.CutPrefix(sc.Text(), "plan:"); ok {
					f.Add(strings.TrimSpace(plan))
					seeds++
				}
			}
			file.Close()
		}
	}
	if seeds == 0 {
		f.Fatal("no committed plans to seed from")
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := Parse(spec)
		if err != nil {
			return
		}
		for _, e := range plan {
			if e.At < 0 {
				t.Fatalf("%q: event %s at negative time %d", spec, e, e.At)
			}
			if e.Factor != 0 && (math.IsNaN(e.Factor) || e.Factor < 1 || e.Factor > MaxFactor) {
				t.Fatalf("%q: event %s factor %v outside [1,%g]", spec, e, e.Factor, MaxFactor)
			}
			if e.Kind == LockStall && (e.Span <= 0 || e.Span > MaxSpan) {
				t.Fatalf("%q: lock stall span %d", spec, e.Span)
			}
		}
		again, err := Parse(plan.String())
		if err != nil {
			t.Fatalf("%q: rendered %q does not parse: %v", spec, plan, err)
		}
		if !reflect.DeepEqual(again, plan) {
			t.Fatalf("%q: %q re-parses to %+v, want %+v", spec, plan, again, plan)
		}
	})
}
