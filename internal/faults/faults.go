// Package faults injects hardware and operating-system faults into a
// simulated Cedar machine at chosen virtual times, so degraded-mode
// runs can be compared against the paper's healthy-machine overhead
// decomposition.
//
// A Plan is an ordered list of typed fault events. The text form,
// accepted by Parse and a scenario's plan field, is a comma-separated
// list of
//
//	kind:target[xFACTOR]@TIME[+SPAN]
//
// where TIME is the virtual cycle the fault fires at (float syntax,
// e.g. 1e6), FACTOR is a slow-down multiplier and SPAN a duration in
// cycles. TIME and SPAN must be finite, TIME >= 0, SPAN must lie in
// [1, MaxSpan] (1e9), and TIME+SPAN must fit sim.Time; FACTOR must lie
// in [1, MaxFactor] (100). Only the slow-down kinds take a factor and only lock takes a
// span, so every accepted plan renders back (Plan.String) to itself.
// The kinds:
//
//	ce:N@T        CE N fail-stops at cycle T
//	ce:Nx3@T      CE N's clock degrades 3x (slow-down, not fail)
//	module:N@T    global-memory module N goes offline (accesses remap)
//	module:Nx2@T  module N's service time inflates 2x
//	port:Nx4@T    forward stage-1 network port N runs at 1/4 bandwidth
//	lock:C@T+S    a rogue kernel thread holds cluster C's kernel lock
//	              for S <= MaxSpan cycles (C = -1: the global kernel
//	              lock)
//	storm:C@T     paging storm: cluster task C's page mappings are
//	              invalidated and re-fault on next touch (C = -1: all)
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// Kind identifies a fault type.
type Kind int

const (
	CEFail Kind = iota
	CESlow
	ModuleOffline
	ModuleSlow
	PortSlow
	LockStall
	PageStorm
	numKinds
)

var kindNames = [numKinds]string{
	"ce-fail", "ce-slow", "module-offline", "module-slow",
	"port-slow", "lock-stall", "page-storm",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Defaults applied by Parse when the spec omits them.
const (
	DefaultPortFactor = 4.0    // port:N@T → quarter bandwidth
	DefaultLockSpan   = 50_000 // lock:C@T → 2.5 ms holder stall
)

// MaxFactor bounds every slow-down factor. Two orders of magnitude
// covers any plausible degradation while keeping each scaled duration
// far inside sim.Time and a degraded run tractable: FLO52 on 8proc
// with one CE slowed 100x finishes in milliseconds of host time, while
// near 1000x the same run stretches past minutes.
const MaxFactor = 100.0

// MaxSpan bounds every lock-stall span, in cycles. A stalled lock
// keeps the kernel watchdog ticking through the whole span, so host
// time grows linearly with it (FLO52 on 8proc: about 0.4 s at 1e10
// cycles, 37 s at 1e12). 1e9 cycles is 50 s of virtual time, far past
// any paper run's completion time, and still finishes in well under a
// second of host time even on Scaled256.
const MaxSpan = 1_000_000_000

// Event is one fault: Kind fires against Target at virtual time At.
// Factor carries the slow-down multiplier for the *Slow kinds; Span
// the stall length for LockStall.
type Event struct {
	Kind   Kind
	Target int
	At     sim.Time
	Factor float64
	Span   sim.Duration
}

// String renders the event in the Parse grammar.
func (e Event) String() string {
	var kind string
	var factor, span string
	switch e.Kind {
	case CEFail:
		kind = "ce"
	case CESlow:
		kind = "ce"
		factor = "x" + formatFactor(e.Factor)
	case ModuleOffline:
		kind = "module"
	case ModuleSlow:
		kind = "module"
		factor = "x" + formatFactor(e.Factor)
	case PortSlow:
		kind = "port"
		factor = "x" + formatFactor(e.Factor)
	case LockStall:
		kind = "lock"
		span = fmt.Sprintf("+%d", int64(e.Span))
	case PageStorm:
		kind = "storm"
	default:
		kind = e.Kind.String()
	}
	return fmt.Sprintf("%s:%d%s@%d%s", kind, e.Target, factor, int64(e.At), span)
}

// Plan is an ordered set of fault events.
type Plan []Event

// String renders the plan in the Parse grammar (comma-separated).
func (p Plan) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse parses a comma-separated fault spec (see the package comment
// for the grammar).
func Parse(spec string) (Plan, error) {
	var plan Plan
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ev, err := parseOne(item)
		if err != nil {
			return nil, fmt.Errorf("faults: bad spec %q: %w", item, err)
		}
		plan = append(plan, ev)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("faults: empty spec %q", spec)
	}
	return plan, nil
}

func parseOne(item string) (Event, error) {
	var ev Event
	kindPart, rest, ok := strings.Cut(item, ":")
	if !ok {
		return ev, fmt.Errorf("missing ':' (want kind:target@time)")
	}
	body, timePart, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@time'")
	}
	// timePart = time [+ span]. Split on the last '+' so exponent
	// signs inside the time float stay untouched ("1e+6" is not a
	// span separator when no span follows a bare time... keep specs
	// to plain "1e6" exponents).
	if t2, spanPart, found := cutLast(timePart, '+'); found {
		s, ok := parseCycles(spanPart)
		if !ok || s < 1 || s > MaxSpan {
			return ev, fmt.Errorf("bad span %q (want 1 to %d)", spanPart, MaxSpan)
		}
		ev.Span = sim.Duration(s)
		timePart = t2
	}
	at, ok := parseCycles(timePart)
	if !ok || int64(ev.Span) > math.MaxInt64-at {
		return ev, fmt.Errorf("bad time %q (or time plus span overflows)", timePart)
	}
	ev.At = sim.Time(at)

	// body = target [x factor].
	if body2, facPart, found := cutLast(body, 'x'); found {
		f, err := strconv.ParseFloat(facPart, 64)
		if err != nil || !(f >= 1 && f <= MaxFactor) {
			return ev, fmt.Errorf("bad factor %q (want 1 to %g)", facPart, MaxFactor)
		}
		ev.Factor = f
		body = body2
	}
	target, err := strconv.Atoi(body)
	if err != nil {
		return ev, fmt.Errorf("bad target %q", body)
	}
	ev.Target = target

	slowed := ev.Factor > 0
	switch kindPart {
	case "ce":
		if slowed {
			ev.Kind = CESlow
		} else {
			ev.Kind = CEFail
		}
	case "module":
		if slowed {
			ev.Kind = ModuleSlow
		} else {
			ev.Kind = ModuleOffline
		}
	case "port":
		ev.Kind = PortSlow
		if !slowed {
			ev.Factor = DefaultPortFactor
		}
	case "lock":
		ev.Kind = LockStall
		if ev.Span == 0 {
			ev.Span = DefaultLockSpan
		}
	case "storm":
		ev.Kind = PageStorm
	default:
		return ev, fmt.Errorf("unknown kind %q (want ce, module, port, lock, storm)", kindPart)
	}
	switch {
	case slowed && (ev.Kind == LockStall || ev.Kind == PageStorm):
		return ev, fmt.Errorf("kind %q takes no factor", kindPart)
	case ev.Span != 0 && ev.Kind != LockStall:
		return ev, fmt.Errorf("kind %q takes no span", kindPart)
	}
	return ev, nil
}

// parseCycles parses a cycle count in float syntax, truncated to whole
// cycles. It rejects NaN, infinities, negatives and values that do not
// fit sim.Time.
func parseCycles(s string) (int64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v < math.MaxInt64) {
		return 0, false
	}
	return int64(v), true
}

// formatFactor renders a factor in the shortest form that parses back
// to the same value.
func formatFactor(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// cutLast splits s around the last occurrence of sep, so factors and
// spans written in float syntax never swallow a leading digit.
func cutLast(s string, sep byte) (before, after string, found bool) {
	i := strings.LastIndexByte(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

// Validate checks every event's target against the configuration.
func (p Plan) Validate(cfg arch.Config) error {
	offline := 0
	for i, e := range p {
		var err error
		switch e.Kind {
		case CEFail, CESlow:
			if e.Target < 0 || e.Target >= cfg.CEs() {
				err = fmt.Errorf("CE %d out of range [0,%d)", e.Target, cfg.CEs())
			}
		case ModuleOffline, ModuleSlow:
			if e.Target < 0 || e.Target >= cfg.GMModules {
				err = fmt.Errorf("module %d out of range [0,%d)", e.Target, cfg.GMModules)
			}
			if e.Kind == ModuleOffline {
				if offline++; offline >= cfg.GMModules {
					err = fmt.Errorf("cannot offline all %d modules", cfg.GMModules)
				}
			}
		case PortSlow:
			if e.Target < 0 || e.Target >= cfg.GMModules {
				err = fmt.Errorf("port %d out of range [0,%d)", e.Target, cfg.GMModules)
			}
		case LockStall, PageStorm:
			if e.Target < -1 || e.Target >= cfg.Clusters {
				err = fmt.Errorf("cluster %d out of range [-1,%d)", e.Target, cfg.Clusters)
			}
		default:
			err = fmt.Errorf("unknown kind %d", e.Kind)
		}
		if err == nil && e.At < 0 {
			err = fmt.Errorf("negative time %d", e.At)
		}
		if err == nil {
			switch e.Kind {
			case CESlow, ModuleSlow, PortSlow:
				if !(e.Factor >= 1 && e.Factor <= MaxFactor) {
					err = fmt.Errorf("factor %g outside [1,%g]", e.Factor, MaxFactor)
				}
			case LockStall:
				if e.Span <= 0 || e.Span > MaxSpan {
					err = fmt.Errorf("span %d outside [1,%d]", e.Span, MaxSpan)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("faults: event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

// Applied records one fault activation: what fired, when, and what the
// hardware/OS hook reported back.
type Applied struct {
	Event Event
	At    sim.Time
	Note  string
}

// Injector arms a Plan against a machine: each event is scheduled as a
// kernel event at its virtual time and dispatched to the matching
// hardware or OS hook when it fires. Activations are posted to the
// monitor (hpm.EvFaultInject) and recorded for the report.
type Injector struct {
	M   *cluster.Machine
	OS  *xylem.OS
	Mon *hpm.Monitor  // may be nil
	Obs *obs.Recorder // may be nil; receives fault activation spans

	// OnCEFail, when set, is called after a CE fail-stops so the
	// runtime can re-evaluate barriers and job quorums that counted
	// on the dead CE.
	OnCEFail func(*cluster.CE)

	applied []Applied
}

// Arm schedules the plan's events. Call before the application starts;
// the plan must already be validated.
func (inj *Injector) Arm(plan Plan) {
	for _, ev := range plan {
		ev := ev
		inj.M.Kernel.Schedule(ev.At, func() { inj.apply(ev) })
	}
}

func (inj *Injector) apply(ev Event) {
	note := ""
	switch ev.Kind {
	case CEFail:
		ce := inj.M.CE(ev.Target)
		ce.Fail()
		note = fmt.Sprintf("CE %d fail-stopped (%d live)", ev.Target, inj.M.LiveCEs())
		if inj.OnCEFail != nil {
			inj.OnCEFail(ce)
		}
	case CESlow:
		inj.M.CE(ev.Target).SetSlowFactor(ev.Factor)
		note = fmt.Sprintf("CE %d clock degraded %gx", ev.Target, ev.Factor)
	case ModuleOffline:
		if inj.M.GM.OfflineModule(ev.Target) {
			note = fmt.Sprintf("module %d offline (%d total)", ev.Target, inj.M.GM.OfflineModules())
		} else {
			note = fmt.Sprintf("module %d kept online (last module)", ev.Target)
		}
	case ModuleSlow:
		inj.M.GM.InflateModule(ev.Target, ev.Factor)
		note = fmt.Sprintf("module %d service time inflated %gx", ev.Target, ev.Factor)
	case PortSlow:
		inj.M.GM.Net().Forward.DegradePort(1, ev.Target, ev.Factor)
		note = fmt.Sprintf("fwd stage-1 port %d degraded %gx", ev.Target, ev.Factor)
	case LockStall:
		inj.OS.LockStall(ev.Target, ev.Span)
		which := fmt.Sprintf("cluster %d", ev.Target)
		if ev.Target < 0 {
			which = "global"
		}
		note = fmt.Sprintf("%s kernel lock stalled %d cycles", which, int64(ev.Span))
	case PageStorm:
		n := inj.OS.InvalidateMappings(ev.Target)
		note = fmt.Sprintf("paging storm dropped %d mappings", n)
	}
	inj.Mon.Post(hpm.EvFaultInject, ev.Target, int32(ev.Kind))
	now := inj.M.Kernel.Now()
	if ev.Kind == LockStall {
		// A lock stall has a known extent; render it as a span so the
		// trace shows the window every kernel entry spun through.
		inj.Obs.Span(obs.TrackMachine, ev.Kind.String(), obs.CatFault, now, now+ev.Span, int64(ev.Target))
	} else {
		inj.Obs.Instant(obs.TrackMachine, ev.Kind.String(), obs.CatFault, now, int64(ev.Target))
	}
	inj.applied = append(inj.applied, Applied{Event: ev, At: now, Note: note})
}

// Applied returns the activation log, in firing order.
func (inj *Injector) Applied() []Applied { return inj.applied }
