package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
)

// bigRunReference is the StatfxText digest of the seed-0 big-run,
// committed with the benchmark.
const bigRunReference = "hostbench/testdata/big-run.sha256"

// bigRun is FLO52 weak-scaled onto Scaled256, one SimulateRunErr at a
// time with one caller: 256 CE processes behind 16x16 switches make a
// dense per-cycle event stream, so nearly all host time goes to process
// switching, gmem.Access, CalendarStore.Reserve and network route
// reservation, and set-up, engine and serve do almost nothing.
type bigRun struct {
	seed int64
	app  perfect.App
	cfg  arch.Config
	opts cedar.Options
	want string // reference digest at seed 0
	// first is the warm-up op's digest; every later op must repeat it.
	first string
	warm  work
}

func newBigRun(seed int64, _ string) workload { return &bigRun{seed: seed} }

func (b *bigRun) workers() int { return 1 }
func (b *bigRun) close()       {}

func (b *bigRun) setup(tr *tracer) error {
	var err error
	tr.do("perfect.resolve", func() { b.app, err = (perfect.Resolver{}).Resolve("FLO52") })
	if err != nil {
		return err
	}
	b.cfg = arch.Scaled256
	b.app = b.app.Scaled(perfect.ScaleFactorFor(b.cfg.CEs()))
	b.opts = cedar.Options{Seed: kernelSeed(b.seed, 1)}
	if b.seed == 0 {
		ref, err := os.ReadFile(bigRunReference)
		if err != nil {
			return err
		}
		b.want = strings.TrimSpace(string(ref))
	}
	s, digest := b.op(nil)
	if s.err != nil && !errors.Is(s.err, errWrongOutput) {
		return s.err
	}
	b.first, b.warm = digest, *s.counts
	return nil
}

func (b *bigRun) measure(until time.Time, tr *tracer) []sample {
	return drive(1, until, math.MaxInt, func(int) sample {
		s, _ := b.op(tr)
		return s
	})
}

// op runs one simulation and renders its result, and checks it.
func (b *bigRun) op(tr *tracer) (sample, string) {
	start := time.Now()
	var run *cedar.Run
	var err error
	tr.do("cedar.simulate", func() { run, err = cedar.SimulateRunErr(b.app, b.cfg, b.opts) })
	if err != nil {
		return sample{latency: time.Since(start), err: err, key: "big-run"}, ""
	}
	var text string
	tr.do("metricreg.render", func() { text = run.StatfxText() })
	s := sample{latency: time.Since(start), sims: 1, key: "big-run"}
	w := runWork(run)
	s.events, s.counts = w.Events, &w
	sum := sha256.Sum256([]byte(text))
	digest := hex.EncodeToString(sum[:])
	switch {
	case b.want != "" && digest != b.want:
		s.err = fmt.Errorf("%w: big-run statfx digest %s, reference %s", errWrongOutput, digest, b.want)
	case b.first != "" && digest != b.first:
		s.err = fmt.Errorf("%w: big-run repeat digest %s, first op %s", errWrongOutput, digest, b.first)
	}
	return s, digest
}

func (b *bigRun) report(r *result) { r.work = b.warm }
