package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// Property: a run reservation leaves the store, and returns the ends
// and delay, exactly as the same Reserve calls in index order do.
func TestQuickCalendarStoreRunMatchesReserve(t *testing.T) {
	const width = 16
	f := func(raw []struct {
		Lo, N   uint8
		At      uint16
		Busy    uint8
		Stagger bool
	}) bool {
		run, ref := NewCalendarStore(width), NewCalendarStore(width)
		var at Time
		for _, r := range raw {
			lo := int(r.Lo) % width
			n := int(r.N) % (width - lo + 1)
			at += Time(r.At % 32)
			busy := Duration(r.Busy % 16)
			ts := make([]Time, n)
			for j := range ts {
				ts[j] = at
				if r.Stagger {
					ts[j] += Time(j)
				}
			}
			var refDelay Duration
			var refLast Time
			refEnds := make([]Time, n)
			for j, tj := range ts {
				start, end := ref.Reserve(lo+j, tj, busy)
				refDelay += start - tj
				refEnds[j] = end
				refLast = max(refLast, end)
			}
			last, delay := run.ReserveRun(lo, ts, busy)
			if last != refLast || delay != refDelay || !reflect.DeepEqual(ts, refEnds) {
				return false
			}
		}
		return reflect.DeepEqual(run, ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarStoreRunNegativeBusyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ReserveRun with negative busy did not panic")
		}
	}()
	NewCalendarStore(4).ReserveRun(0, make([]Time, 2), -1)
}

// TestCalendarStoreRunZeroAlloc pins the run reservation to zero
// allocations: it sits on every vector memory access.
func TestCalendarStoreRunZeroAlloc(t *testing.T) {
	s := NewCalendarStore(64)
	ts := make([]Time, 16)
	var at Time
	allocs := testing.AllocsPerRun(200, func() {
		at += 7
		for j := range ts {
			ts[j] = at + Time(j)
		}
		s.ReserveRun(8, ts, 3)
		s.ReserveRun(32, ts, 4)
	})
	if allocs != 0 {
		t.Fatalf("run reservations allocate %.1f/op, want 0", allocs)
	}
}
