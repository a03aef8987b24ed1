// Package cedar is the public facade of the Cedar overhead-
// characterization reproduction (Natarajan, Sharma, Iyer — ISCA 1994).
//
// One call simulates an application on a Cedar configuration with full
// instrumentation and returns the analysis-ready result alongside the
// live simulation objects:
//
//	run, err := cedar.SimulateRunCtx(ctx, perfect.FLO52(), arch.Cedar32, cedar.Options{})
//	fmt.Println(run.Result.OSShare(), run.Result.Task(0).OverheadFraction())
//
// Sweeps runs applications across the paper's five configurations and
// normalizes reported seconds so the 1-processor completion time
// matches the paper's Table 1 (the calibration policy in DESIGN.md);
// every multiprocessor quantity is model output.
package cedar

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/sim"
	"repro/internal/statfx"
	"repro/internal/xylem"
)

// Options tune a simulation run.
type Options struct {
	// Steps overrides the app's timestep count when > 0 (smaller is
	// faster; overhead fractions are step-count invariant).
	Steps int
	// Seed overrides the deterministic seed derived from the app and
	// configuration when non-zero.
	Seed int64
	// SamplerInterval is the statfx sampling period in cycles;
	// defaults to 10000 (0.5 ms) when zero. Negative disables the
	// sampler.
	SamplerInterval sim.Duration
	// TraceCapacity enables the cedarhpm monitor with the given trace
	// buffer capacity when > 0.
	TraceCapacity int
	// TraceMask restricts recorded event kinds when non-zero (see
	// hpm.MaskFor).
	TraceMask uint32
	// Costs overrides the unit-cost model when non-nil.
	Costs *arch.CostModel
	// TreeFanout, when > 1, uses the software combining-tree barrier
	// (paper reference [16]) instead of the flat busy-wait barrier on
	// unclustered configurations.
	TreeFanout int
	// XdoallChunk, when > 1, claims chunks of XDOALL iterations per
	// global-lock pickup, amortizing the distribution overhead.
	XdoallChunk int
	// Faults is a plan of hardware/OS faults to inject at their
	// virtual times (degraded-mode simulation). Validated against the
	// configuration before the run starts.
	Faults faults.Plan
	// MaxCycles aborts the simulation with sim.ErrCycleBudget when
	// virtual time would pass it (0: unlimited). A guard rail for
	// fault plans that slow the machine pathologically.
	MaxCycles sim.Time
	// WatchdogInterval sets how often the kernel checks for a wedged
	// simulation (every live process blocked, no progress), reporting
	// sim.ErrDeadlock. Zero uses a default of 10M cycles (0.5 s of
	// virtual time); negative disables the watchdog.
	WatchdogInterval sim.Duration
	// Observe enables the observability layer: an obs.Recorder wired
	// through the machine, OS, runtime, and fault injector, plus a
	// time-series collector sampling concurrency, memory/network
	// backlog, and the qmon split. Nil leaves observation off (the
	// zero-cost path). The zero obs.Options value gives defaults.
	Observe *obs.Options
	// Parallel bounds how many independent simulations the batch
	// helpers (Sweeps, FaultSweep) run concurrently. Zero uses
	// GOMAXPROCS; 1 forces the sequential path. Parallelism is wall-clock only: every
	// simulation owns its kernel and deterministic seed, and results
	// are assembled in input order, so batch output is byte-identical
	// at any setting (see internal/engine).
	Parallel int
}

// defaultWatchdog is the deadlock-check period when
// Options.WatchdogInterval is zero.
const defaultWatchdog = 10_000_000

// interruptEvery is how many kernel events pass between context checks
// in a run whose context can be canceled: frequent enough that
// cancellation lands within microseconds of wall-clock, rare enough to
// be invisible in the event loop's profile.
const interruptEvery = 1024

// KernelSeed returns the seed a run of app on cfg under these options
// starts its kernel with: Seed when set, otherwise a value derived
// from the app and configuration names.
func (o Options) KernelSeed(app perfect.App, cfg arch.Config) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(app.Name))
	h.Write([]byte(cfg.Name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Run is a simulation's analysis result plus the live simulation
// objects, for callers (tools, tests) that want to inspect traces or
// hardware statistics beyond the analysis result.
type Run struct {
	Result   *core.Result
	Machine  *cluster.Machine
	OS       *xylem.OS
	RT       *cfrt.Runtime
	Monitor  *hpm.Monitor     // nil unless Options.TraceCapacity > 0
	Injector *faults.Injector // nil unless Options.Faults was set
	Obs      *obs.Recorder    // nil unless Options.Observe was set
	Series   *obs.Collector   // nil unless Options.Observe was set

	// reg is the run's metric registry: pre-seeded with the live series
	// probes when the run was observed, completed lazily with the
	// result metrics by Metrics().
	reg     *metricreg.Registry
	regOnce sync.Once
}

// SimulateRunCtx runs one application on one configuration, applying
// any fault plan in the options, and returns the live simulation
// objects alongside the analysis result. It is the one function that
// builds a run. Invalid apps, configurations and fault plans come back
// as errors, and so do simulation failures (sim.ErrDeadlock,
// sim.ErrCycleBudget, process panics) — check with errors.Is. When the
// simulation itself ran but ended abnormally, the Run is returned too,
// with accounting collected up to the failure point.
//
// The kernel checks ctx between events (every interruptEvery
// dispatches), and a canceled or expired context stops the run with an
// error matching both sim.ErrCanceled and ctx.Err(). A context that
// never fires cannot perturb the simulation — the check runs between
// events, never inside one — and a context whose Done channel is nil
// (context.Background) arms no check at all.
func SimulateRunCtx(ctx context.Context, app perfect.App, cfg arch.Config, opts Options) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cedar: not starting %s on %s: %w", app.Name, cfg.Name, err)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(cfg); err != nil {
		return nil, err
	}
	if opts.Steps > 0 {
		app = app.WithSteps(opts.Steps)
	}
	costs := arch.DefaultCosts()
	if opts.Costs != nil {
		costs = *opts.Costs
	}

	k := sim.NewKernel(opts.KernelSeed(app, cfg))
	if opts.MaxCycles > 0 {
		k.SetMaxCycles(opts.MaxCycles)
	}
	if done := ctx.Done(); done != nil {
		k.SetInterrupt(interruptEvery, func() error {
			select {
			case <-done:
				return ctx.Err()
			default:
				return nil
			}
		})
	}
	if opts.WatchdogInterval >= 0 {
		interval := opts.WatchdogInterval
		if interval == 0 {
			interval = defaultWatchdog
		}
		k.SetWatchdog(interval)
	}
	m := cluster.NewMachine(k, cfg, costs)
	o := xylem.New(m)

	var rec *obs.Recorder
	var series *obs.Collector
	var liveReg *metricreg.Registry
	if opts.Observe != nil {
		rec = obs.NewRecorder(*opts.Observe)
		m.Obs = rec
		m.GM.SetRecorder(rec)
		o.Obs = rec
		series = obs.NewCollector(k, *opts.Observe)
		liveReg = metricreg.New()
		registerProbes(liveReg, m)
		// The collector samples the registry's live scalar metrics: one
		// registration feeds the time series and every exporter alike,
		// in registration order (the series CSV column order).
		for _, rd := range liveReg.ScalarReaders() {
			series.AddProbe(rd.Desc.Name, func(now sim.Time) float64 { return rd.Read() })
		}
		series.Start()
	}

	var mon *hpm.Monitor
	if opts.TraceCapacity > 0 {
		mon = hpm.New(k, opts.TraceCapacity)
		if opts.TraceMask != 0 {
			mon.SetMask(opts.TraceMask)
		}
	}
	rt := cfrt.New(m, o, mon)
	rt.TreeFanout = opts.TreeFanout
	rt.XdoallChunk = opts.XdoallChunk
	rt.Obs = rec

	var inj *faults.Injector
	if len(opts.Faults) > 0 {
		inj = &faults.Injector{M: m, OS: o, Mon: mon, Obs: rec, OnCEFail: rt.NotifyCEFailure}
		inj.Arm(opts.Faults)
	}

	var sampler *statfx.Sampler
	if opts.SamplerInterval >= 0 {
		interval := opts.SamplerInterval
		if interval == 0 {
			interval = 10_000
		}
		sampler = statfx.NewSampler(m, interval)
	}
	if sampler != nil || series != nil {
		rt.OnFinish = func() {
			if sampler != nil {
				sampler.Stop()
			}
			series.Stop() // nil-safe
		}
	}

	region := o.NewRegion(app.Name+".data", app.DataWords)
	_, err := rt.RunErr(app.Program(region))
	if sampler != nil {
		sampler.Stop() // idempotent; error paths never reached OnFinish
	}
	series.Stop()

	res := core.Collect(app.Name, 1, rt, sampler)
	run := &Run{Result: res, Machine: m, OS: o, RT: rt, Monitor: mon, Injector: inj,
		Obs: rec, Series: series, reg: liveReg}
	return run, err
}

// SimulateRunErr is SimulateRunCtx without cancellation. It is kept for
// the hostbench benchmark, whose big-run and paper-sweep workloads call
// it; context.Background arms no kernel interrupt.
func SimulateRunErr(app perfect.App, cfg arch.Config, opts Options) (*Run, error) {
	return SimulateRunCtx(context.Background(), app, cfg, opts)
}

// registerProbes registers the standard live probes as registry gauge
// functions: machine and per-cluster concurrency (the statfx signal),
// the qmon user/system/interrupt/spin split as CE counts, global-memory
// module utilization and backlog, network port backlog (the hot-spot
// signal), and simulation liveness counters. Each reads the machine at
// the kernel's current virtual time, so sampling them from the series
// collector is equivalent to the old direct probes — but the same
// registration also puts them in every exporter.
func registerProbes(reg *metricreg.Registry, m *cluster.Machine) {
	now := m.Kernel.Now
	countCEs := func(pred func(*cluster.CE) bool) float64 {
		n := 0.0
		for _, ce := range m.AllCEs() {
			if pred(ce) {
				n++
			}
		}
		return n
	}
	reg.GaugeFunc("concurrency", "CEs active at the sampling instant", "ces", func() float64 {
		return float64(m.ActiveCEs())
	})
	for ci := range m.Clusters {
		ci := ci
		reg.GaugeFunc(fmt.Sprintf("concurrency_c%d", ci),
			fmt.Sprintf("CEs of cluster %d active at the sampling instant", ci), "ces",
			func() float64 {
				return float64(m.ClusterActiveCEs(ci))
			})
	}
	// The qmon split, sampled as how many CEs are in each execution
	// mode at the instant (Figure 3's user/system/interrupt/spin).
	reg.GaugeFunc("ces_user", "CEs executing user code", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy().IsUser() })
	})
	reg.GaugeFunc("ces_system", "CEs executing OS system code", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSSystem })
	})
	reg.GaugeFunc("ces_interrupt", "CEs servicing interrupts", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSInterrupt })
	})
	reg.GaugeFunc("ces_spin", "CEs spinning on OS locks", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSSpin })
	})
	reg.GaugeFunc("gm_module_util_mean", "mean global-memory module utilization", "fraction", func() float64 {
		us := m.GM.ModuleUtilization(now())
		if len(us) == 0 {
			return 0
		}
		sum := 0.0
		for _, u := range us {
			sum += u
		}
		return sum / float64(len(us))
	})
	reg.GaugeFunc("gm_module_util_max", "utilization of the hottest global-memory module", "fraction", func() float64 {
		max := 0.0
		for _, u := range m.GM.ModuleUtilization(now()) {
			if u > max {
				max = u
			}
		}
		return max
	})
	reg.GaugeFunc("gm_backlog_cycles", "queued work across global-memory modules", "cycles", func() float64 {
		return float64(m.GM.ModuleBacklog(now()))
	})
	reg.CounterFunc("gm_accesses", "global-memory accesses issued", "accesses", func() float64 {
		return float64(m.GM.Stats().Accesses)
	})
	reg.GaugeFunc("net_backlog_cycles", "queued work across network ports", "cycles", func() float64 {
		return float64(m.GM.Net().Backlog(now()))
	})
	reg.CounterFunc("net_delay_cycles", "cumulative network queueing delay", "cycles", func() float64 {
		return float64(m.GM.Net().Stats().DelayTotal)
	})
	reg.GaugeFunc("live_procs", "live kernel processes", "procs", func() float64 {
		return float64(m.Kernel.LiveProcs())
	})
	reg.GaugeFunc("failed_ces", "CEs fail-stopped so far", "ces", func() float64 {
		return float64(m.FailedCEs())
	})
}

// TraceBundle folds the run's hpm event trace and recorder spans into
// one exportable bundle for obs.WriteTrace. The hpm trace contributes
// runtime structure (serial sections, loops, iterations, barriers); the
// recorder contributes OS, memory, and fault spans. Works with either
// source missing.
func (r *Run) TraceBundle() *obs.Bundle {
	b := &obs.Bundle{
		App:           r.Result.App,
		Config:        r.Machine.Cfg.Name,
		CEs:           r.Machine.Cfg.CEs(),
		CEsPerCluster: r.Machine.Cfg.CEsPerCluster,
		CT:            r.Result.CT,
	}
	var spans []obs.Span
	var insts []obs.Instant
	if r.Monitor != nil {
		spans, insts = obs.FoldTrace(r.Monitor.Trace(), r.Obs)
	}
	spans = append(spans, r.Obs.Spans()...)
	insts = append(insts, r.Obs.Instants()...)
	obs.SortSpans(spans)
	b.Spans = obs.ClampSpans(spans, r.Result.CT)
	b.Instants = insts
	return b
}

// Sweeps runs several applications' paper sweeps through one worker
// pool: the application × configuration grid is flattened into
// independent jobs, so a 4-worker pool stays busy even while one
// application's slowest configuration trails. The runs execute
// concurrently per Options.Parallel; results are assembled in
// application order, identical to a sequential run's, with seconds
// normalized so each 1-processor completion time matches the paper's
// (when the app is one of the five; synthetic apps keep Scale 1). It
// panics when a run fails.
func Sweeps(apps []perfect.App, opts Options) []*core.Sweep {
	cfgs := arch.PaperConfigs()
	type job struct {
		app int
		cfg arch.Config
	}
	jobs := make([]job, 0, len(apps)*len(cfgs))
	for a := range apps {
		for _, cfg := range cfgs {
			jobs = append(jobs, job{app: a, cfg: cfg})
		}
	}
	results := engine.Map(opts.Parallel, jobs, func(_ int, j job) *core.Result {
		run, err := SimulateRunErr(apps[j.app], j.cfg, opts)
		if err != nil {
			panic(err)
		}
		return run.Result
	})
	out := make([]*core.Sweep, len(apps))
	for a, app := range apps {
		out[a] = &core.Sweep{App: app.Name, Results: map[int]*core.Result{}}
	}
	for i, j := range jobs {
		out[j.app].Results[j.cfg.CEs()] = results[i]
	}
	for _, s := range out {
		normalize(s)
	}
	return out
}

// normalize sets every result's Scale so that the sweep's 1-processor
// CT in seconds equals the paper's published CT1.
func normalize(s *core.Sweep) {
	base := s.Base()
	if base == nil {
		return
	}
	paper := perfect.PaperCT1(s.App)
	if paper <= 0 {
		return
	}
	raw := arch.Seconds(int64(base.CT))
	if raw <= 0 {
		return
	}
	scale := paper / raw
	for _, r := range s.Results {
		r.Scale = scale
	}
}

// FaultReport is one FaultSweep entry: the degraded run under one
// fault plan plus its decomposition against the healthy baseline. Err
// is set when the degraded run ended abnormally (e.g. sim.ErrDeadlock
// from a plan that kills the machine); Run still carries the partial
// accounting then.
type FaultReport struct {
	Plan   faults.Plan
	Run    *Run
	Report *core.DegradedReport // nil when Err is set
	Err    error
}

// FaultSweep runs the application once healthy on the configuration
// (the baseline) and once per fault plan, comparing each degraded run
// against the baseline with the paper's overhead decomposition (the
// 1-processor run supplies the contention base). Runs use the same
// deterministic seeds as a single run, so a sweep is reproducible run to
// run. Baseline failures abort the sweep; per-plan failures are
// recorded in the report and the sweep continues. The two baselines
// and the per-plan degraded runs each execute concurrently per
// Options.Parallel, with reports ordered by plan index.
func FaultSweep(app perfect.App, cfg arch.Config, plans []faults.Plan, opts Options) ([]*FaultReport, error) {
	healthy := opts
	healthy.Faults = nil
	type baseOut struct {
		res *core.Result
		err error
	}
	bases := engine.Map(opts.Parallel, []arch.Config{arch.Cedar1, cfg},
		func(_ int, c arch.Config) baseOut {
			run, err := SimulateRunErr(app, c, healthy)
			if err != nil {
				return baseOut{err: err}
			}
			return baseOut{res: run.Result}
		})
	for _, b := range bases {
		if b.err != nil {
			return nil, b.err
		}
	}
	base1p, baseline := bases[0].res, bases[1].res
	out := engine.Map(opts.Parallel, plans, func(_ int, plan faults.Plan) *FaultReport {
		po := opts
		po.Faults = plan
		fr := &FaultReport{Plan: plan}
		run, err := SimulateRunErr(app, cfg, po)
		fr.Run = run
		if err != nil {
			fr.Err = err
		} else {
			fr.Report, fr.Err = core.CompareDegraded(base1p, baseline, run.Result, plan.String())
		}
		return fr
	})
	return out, nil
}
