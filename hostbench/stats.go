package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one closed-loop op as the caller saw it.
type sample struct {
	latency time.Duration
	err     error // the op errored, was refused, or returned a wrong output
	sims    int   // simulations the op ran (0 for a cache hit)
	events  uint64
	hit     bool
	// key names the op's input; ops with equal keys must report equal
	// work counts.
	key    string
	counts *work // exact simulated work, when the op knows it
}

// summary is the end-to-end view of one window.
type summary struct {
	runP50       float64 // median latency of ops that simulated
	eventsPerS   float64
	simsPerS     float64
	jobsPerS     float64
	latP50       float64
	latP90       float64
	hitP50       float64
	allocMBPerOp float64
	simOps, hits int
	tailName     string // highest percentile with >= 10 samples beyond it
}

func summarize(p pass) summary {
	var s summary
	var all, sim, hit []float64
	var events uint64
	var sims int
	for _, x := range p.samples {
		if x.err != nil {
			continue
		}
		l := x.latency.Seconds()
		all = append(all, l)
		if x.sims > 0 {
			sim = append(sim, l)
		}
		if x.hit {
			hit = append(hit, l)
		}
		events += x.events
		sims += x.sims
	}
	s.simOps, s.hits = len(sim), len(hit)
	s.runP50 = median(sim)
	s.latP50 = percentile(all, 50)
	s.latP90 = percentile(all, 90)
	s.hitP50 = median(hit)
	if p.wall > 0 {
		w := p.wall.Seconds()
		s.eventsPerS = float64(events) / w
		s.simsPerS = float64(sims) / w
		s.jobsPerS = float64(len(all)) / w
	}
	if n := len(p.samples); n > 0 {
		s.allocMBPerOp = float64(p.allocB) / 1e6 / float64(n)
	}
	s.tailName = "none"
	if q, ok := tailPercentile(len(all)); ok {
		s.tailName = percentileName(q, percentile(all, q))
	}
	return s
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that leaves
// at least ten of n samples beyond it; ok is false when even the median
// has fewer than ten beyond it.
func tailPercentile(n int) (q float64, ok bool) {
	for _, q := range tailPercentiles {
		if float64(n)*(100-q)/100 >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

func percentileName(q, v float64) string {
	return fmt.Sprintf("p%g=%.4gs", q, v)
}

// percentile interpolates linearly between closest ranks; 0 for no
// values.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// tracer records spans around the benchmark's calls into each layer,
// in memory, while on.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span
}

// span is one timed call. The benchmark's calls into the layers do not
// nest, so a span has no parent.
type span struct {
	name       string
	start, end time.Time
}

// do runs fn, recording it as a span named name when the tracer is on.
// A nil tracer records nothing.
func (t *tracer) do(name string, fn func()) {
	if t == nil || !t.isOn() {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end})
	t.mu.Unlock()
}

func (t *tracer) isOn() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// totals sums span durations per name.
func (t *tracer) totals() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.name] += s.end.Sub(s.start).Seconds()
	}
	return out
}

// splitmix derives well-mixed 63-bit values from a seed and a stream
// number.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// kernelSeed is the simulation seed for a workload seed: 0 keeps the
// facade's seed derived from app and configuration, which the committed
// references were captured with.
func kernelSeed(seed int64, stream uint64) int64 {
	if seed == 0 {
		return 0
	}
	if v := splitmix(seed, stream); v != 0 {
		return v
	}
	return 1
}
