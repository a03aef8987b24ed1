package obs

import (
	"sort"

	"repro/internal/hpm"
	"repro/internal/sim"
)

// CatRT, CatOS, CatMem, CatLoop, CatFault are the span category groups
// the exporters recognize.
const (
	CatRT    = "rt"    // runtime-library protocol work
	CatOS    = "os"    // Xylem activities
	CatMem   = "mem"   // hardware stalls and queueing
	CatLoop  = "loop"  // whole parallel-loop windows (async track)
	CatFault = "fault" // fault-injection activations
)

// pairRule maps an hpm start/end event pair to a span name.
type pairRule struct {
	start, end hpm.EventID
	name       string
}

// tracePairs are the per-CE event pairs the tracer folds into spans —
// the runtime-library trigger points of Section 4 of the paper.
var tracePairs = []pairRule{
	{hpm.EvSerialStart, hpm.EvSerialEnd, "serial"},
	{hpm.EvMCLoopStart, hpm.EvMCLoopEnd, "mc-loop"},
	{hpm.EvIterStart, hpm.EvIterEnd, "iter"},
	{hpm.EvPickStart, hpm.EvPickEnd, "pick"},
	{hpm.EvBarrierEnter, hpm.EvBarrierExit, "barrier"},
	{hpm.EvWaitStart, hpm.EvWaitEnd, "helper-wait"},
}

// FoldTrace folds a raw cedarhpm event stream into hierarchical spans:
// per-CE spans for the runtime-library pairs (serial sections,
// main-cluster loops, iterations, pickups, barrier and helper waits),
// per-CE loop-participation spans (loop post to barrier exit on the
// main lead; helper join to detach on helper leads), and one
// machine-track async span per posted loop. Names carries loop-name
// metadata (a Recorder is one; nil is fine). Unmatched starts — a
// truncated trace buffer or a fail-stopped CE — are dropped.
//
// The returned spans are sorted by start time (end time breaks ties,
// longest first, so enclosing spans precede their children).
func FoldTrace(records []hpm.Record, names interface{ LoopName(int64) string }) ([]Span, []Instant) {
	type openKey struct {
		ce   int
		rule int
	}
	open := map[openKey]hpm.Record{}
	loopOpen := map[int64]hpm.Record{} // machine loop window, by generation
	partOpen := map[int]hpm.Record{}   // per-CE loop participation
	ruleOf := map[hpm.EventID]int{}    // start event -> rule index
	endOf := map[hpm.EventID]int{}     // end event -> rule index
	for i, p := range tracePairs {
		ruleOf[p.start] = i
		endOf[p.end] = i
	}

	loopName := func(gen int64) string {
		if names != nil {
			return names.LoopName(gen)
		}
		return (*Recorder)(nil).LoopName(gen)
	}

	var spans []Span
	var instants []Instant
	for _, rec := range records {
		if i, ok := ruleOf[rec.Event]; ok {
			open[openKey{rec.CE, i}] = rec
		}
		if i, ok := endOf[rec.Event]; ok {
			k := openKey{rec.CE, i}
			if s, exists := open[k]; exists {
				spans = append(spans, Span{
					Track: rec.CE, Name: tracePairs[i].name, Cat: CatRT,
					Start: s.At, End: rec.At, Aux: int64(s.Aux),
				})
				delete(open, k)
			}
		}
		switch rec.Event {
		case hpm.EvLoopPost:
			loopOpen[int64(rec.Aux)] = rec
			partOpen[rec.CE] = rec
		case hpm.EvHelperJoin:
			partOpen[rec.CE] = rec
			instants = append(instants, Instant{Track: rec.CE, Name: "join", Cat: CatRT, At: rec.At, Aux: int64(rec.Aux)})
		case hpm.EvHelperDetach:
			if s, ok := partOpen[rec.CE]; ok {
				spans = append(spans, Span{
					Track: rec.CE, Name: loopName(int64(s.Aux)), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: int64(s.Aux),
				})
				delete(partOpen, rec.CE)
			}
		case hpm.EvBarrierExit:
			if s, ok := partOpen[rec.CE]; ok && s.Aux == rec.Aux {
				spans = append(spans, Span{
					Track: rec.CE, Name: loopName(int64(s.Aux)), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: int64(s.Aux),
				})
				delete(partOpen, rec.CE)
			}
			if s, ok := loopOpen[int64(rec.Aux)]; ok {
				spans = append(spans, Span{
					Track: TrackMachine, Name: loopName(int64(rec.Aux)), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: int64(rec.Aux),
				})
				delete(loopOpen, int64(rec.Aux))
			}
		case hpm.EvCtxSwitch:
			instants = append(instants, Instant{Track: rec.CE, Name: "ctx-switch", Cat: CatOS, At: rec.At, Aux: int64(rec.Aux)})
		case hpm.EvFaultInject:
			instants = append(instants, Instant{Track: TrackMachine, Name: "fault-inject", Cat: CatFault, At: rec.At, Aux: int64(rec.Aux)})
		}
	}
	SortSpans(spans)
	return spans, instants
}

// SortSpans orders spans by start time; ties put the longest
// (enclosing) span first, so a stack-based consumer sees parents
// before children.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
}

// ClampSpans truncates spans to [0, ct] and drops spans that start at
// or after ct — exporters use it so artifacts never extend past the
// completion time (helpers wind down exactly at CT).
func ClampSpans(spans []Span, ct sim.Time) []Span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Start >= ct && ct > 0 {
			continue
		}
		if ct > 0 && s.End > ct {
			s.End = ct
		}
		out = append(out, s)
	}
	return out
}
