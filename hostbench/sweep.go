package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perfect"
)

// tablesReference is the committed CSV of every paper table at seed 0.
const tablesReference = "testdata/golden/tables.csv"

// paperSweep is the five paper apps on the five paper configurations
// (1–32 CEs) through cedar.Sweeps with Parallel = nproc: 25 small
// machines, so per-run fixed costs (machine construction, xylem regions
// and page faults, cfrt protocols, core.Collect) and engine pool
// balance count for much more than memory and network contention.
type paperSweep struct {
	seed  int64
	apps  []perfect.App
	opts  cedar.Options
	want  []byte          // tables.csv at seed 0
	cells map[string]work // count pass: result counts per app@config
	cts   map[string]int64
	total work // count pass totals, kernel events included
	first string
	err   float64 // mean relative error of the speedups against Table 1
}

func newPaperSweep(seed int64, _ string) workload { return &paperSweep{seed: seed} }

func (p *paperSweep) workers() int { return runtime.NumCPU() }
func (p *paperSweep) close()       {}

func (p *paperSweep) setup(tr *tracer) error {
	for _, a := range perfect.Apps() {
		var app perfect.App
		var err error
		tr.do("perfect.resolve", func() { app, err = (perfect.Resolver{}).Resolve(a.Name) })
		if err != nil {
			return err
		}
		p.apps = append(p.apps, app)
	}
	p.opts = cedar.Options{Seed: kernelSeed(p.seed, 2), Parallel: runtime.NumCPU()}
	if p.seed == 0 {
		var err error
		if p.want, err = os.ReadFile(tablesReference); err != nil {
			return err
		}
	}
	return p.countPass()
}

// countPass is the warm-up op: the same 25 simulations through
// SimulateRunErr, which exposes the kernel event and network
// reservation counts the sweep's results do not carry.
func (p *paperSweep) countPass() error {
	type cell struct {
		app perfect.App
		cfg arch.Config
	}
	var cells []cell
	for _, a := range p.apps {
		for _, c := range arch.PaperConfigs() {
			cells = append(cells, cell{a, c})
		}
	}
	type out struct {
		run *cedar.Run
		err error
	}
	runs := engine.Map(p.opts.Parallel, cells, func(_ int, c cell) out {
		run, err := cedar.SimulateRunErr(c.app, c.cfg, p.opts)
		return out{run, err}
	})
	p.cells, p.cts = map[string]work{}, map[string]int64{}
	for i, c := range cells {
		if runs[i].err != nil {
			return fmt.Errorf("%s on %s: %w", c.app.Name, c.cfg.Name, runs[i].err)
		}
		name := c.app.Name + "@" + c.cfg.Name
		w := runWork(runs[i].run)
		p.total.add(w)
		p.cells[name] = resultWork(runs[i].run.Result)
		p.cts[name] = int64(runs[i].run.Result.CT)
	}
	return nil
}

func (p *paperSweep) measure(until time.Time, tr *tracer) []sample {
	return drive(1, until, math.MaxInt, func(int) sample { return p.op(tr) })
}

func (p *paperSweep) op(tr *tracer) (s sample) {
	s.key = "paper-sweep"
	start := time.Now()
	var sweeps []*core.Sweep
	tr.do("cedar.simulate", func() {
		defer func() {
			if v := recover(); v != nil {
				s.err = fmt.Errorf("sweep failed: %v", v)
			}
		}()
		sweeps = cedar.Sweeps(p.apps, p.opts)
	})
	s.latency = time.Since(start)
	if s.err != nil {
		return s
	}
	s.sims = len(p.apps) * len(arch.PaperConfigs())
	s.events = p.total.Events
	s.err = p.check(sweeps, &s)
	return s
}

// check compares a sweep's tables with the reference (seed 0) and the
// first op, and every result's counts with the count pass.
func (p *paperSweep) check(sweeps []*core.Sweep, s *sample) error {
	tables := tablesCSV(sweeps)
	sum := sha256.Sum256([]byte(tables))
	digest := hex.EncodeToString(sum[:])
	if p.want != nil && tables != string(p.want) {
		return fmt.Errorf("%w: paper sweep tables differ from %s", errWrongOutput, tablesReference)
	}
	if p.first == "" {
		p.first = digest
		p.err = table1Error(sweeps)
	} else if digest != p.first {
		return fmt.Errorf("%w: paper sweep repeat digest %s, first op %s", errWrongOutput, digest, p.first)
	}
	var got work
	for _, sw := range sweeps {
		for _, res := range sw.Results {
			name := sw.App + "@" + res.Cfg.Name
			if int64(res.CT) != p.cts[name] || resultWork(res) != p.cells[name] {
				return fmt.Errorf("%w: %s differs between Sweeps and SimulateRunErr", errWrongOutput, name)
			}
			got.add(resultWork(res))
		}
	}
	got.Events, got.NetReservations = p.total.Events, p.total.NetReservations
	s.counts = &got
	return nil
}

// tablesCSV renders every paper table as cedartables -csv does.
func tablesCSV(sweeps []*core.Sweep) string {
	var at32 []*core.Result
	for _, s := range sweeps {
		if r, ok := s.Results[32]; ok {
			at32 = append(at32, r)
		}
	}
	var b strings.Builder
	b.WriteString(core.Table1CSV(sweeps))
	b.WriteString(core.Figure3CSV(sweeps))
	b.WriteString(core.UserTimeCSV(sweeps))
	b.WriteString(core.Table2CSV(at32))
	b.WriteString(core.Table3CSV(sweeps))
	b.WriteString(core.Table4CSV(sweeps))
	return b.String()
}

// table1Error is the mean relative error of the simulated speedups
// against the paper's Table 1, at 4, 8, 16 and 32 CEs.
func table1Error(sweeps []*core.Sweep) float64 {
	total, n := 0.0, 0
	for _, s := range sweeps {
		row, ok := perfect.PaperTable1[s.App]
		if !ok || s.Base() == nil {
			continue
		}
		for _, ces := range []int{4, 8, 16, 32} {
			res, ok := s.Results[ces]
			if !ok || row.Speedup[ces] == 0 {
				continue
			}
			total += math.Abs(res.Speedup(s.Base())-row.Speedup[ces]) / row.Speedup[ces]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func (p *paperSweep) report(r *result) {
	r.work = p.total
	r.set("perfect.table1_speedup_err", p.err)
}
