package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/sim"
)

// Micro-timer sizes: each timer runs microOps operations microReps
// times and reports the median repetition.
const (
	microOps  = 1 << 16
	microReps = 5
)

// microTimers times single layer operations through their public
// functions, on inputs drawn from the workload seed, and reports ns/op
// and allocs/op for each.
func microTimers(seed int64) map[string]float64 {
	out := map[string]float64{}
	for name, timer := range map[string]func(int64) (float64, float64){
		"sim.switch":          timeSwitch,
		"calendar.reserve":    timeReserve,
		"network.fwd_subtree": timeFwdSubtree,
		"gmem.access":         timeAccess,
	} {
		out[name+"_ns"], out[name+"_allocs"] = timer(seed)
	}
	return out
}

// timeReps runs body microReps times; body returns the operations it
// ran. It reports the median ns/op and the mean allocations per op.
func timeReps(body func() int) (nsPerOp, allocsPerOp float64) {
	var ns []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	for i := 0; i < microReps; i++ {
		start := time.Now()
		n := body()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&ms1)
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
}

// timeSwitch: two processes alternate through Hold, so every event is
// one switch from the kernel into a process and back.
func timeSwitch(seed int64) (float64, float64) {
	k := sim.NewKernel(seed)
	for i := 0; i < 2; i++ {
		offset := sim.Duration(i)
		k.Spawn("switch", func(p *sim.Proc) {
			p.Hold(offset)
			for {
				p.Hold(2)
			}
		})
	}
	k.Run(1024) // start both processes and warm the event pool
	defer k.Shutdown()
	return timeReps(func() int {
		return int(k.Run(k.Now() + microOps))
	})
}

// reservation is one drawn calendar booking.
type reservation struct {
	index int
	gap   sim.Duration // advance of the request time before this booking
	busy  sim.Duration
	words int
	ce    arch.CEID
	addr  int64
}

// drawReservations draws n bookings over width resources, with request
// times advancing by 0–3 cycles so that some bookings queue.
func drawReservations(seed int64, stream uint64, n, width int, cfg arch.Config) []reservation {
	rng := rand.New(rand.NewSource(splitmix(seed, stream)))
	out := make([]reservation, n)
	for i := range out {
		out[i] = reservation{
			index: rng.Intn(width),
			gap:   sim.Duration(rng.Intn(4)),
			busy:  sim.Duration(1 + rng.Intn(8)),
			words: 1 + rng.Intn(32),
			ce:    arch.CEID{Cluster: rng.Intn(cfg.Clusters), Local: rng.Intn(cfg.CEsPerCluster)},
			addr:  rng.Int63n(1 << 22),
		}
	}
	return out
}

func timeReserve(seed int64) (float64, float64) {
	const width = 512
	in := drawReservations(seed, 101, microOps, width, arch.Scaled256)
	store := sim.NewCalendarStore(width)
	var at sim.Time
	return timeReps(func() int {
		for _, r := range in {
			at += r.gap
			store.Reserve(r.index, at, r.busy)
		}
		return len(in)
	})
}

func timeFwdSubtree(seed int64) (float64, float64) {
	cfg := arch.Scaled256
	in := drawReservations(seed, 102, microOps, cfg.GMModules, cfg)
	pair := network.NewPair(cfg, arch.DefaultCosts())
	var at sim.Time
	return timeReps(func() int {
		for _, r := range in {
			at += r.gap
			pair.ReserveFwdSubtree(r.index, at, r.words)
		}
		return len(in)
	})
}

func timeAccess(seed int64) (float64, float64) {
	cfg := arch.Scaled256
	in := drawReservations(seed, 103, microOps, cfg.GMModules, cfg)
	mem := gmem.New(cfg, arch.DefaultCosts())
	var at sim.Time
	return timeReps(func() int {
		for _, r := range in {
			at += r.gap
			mem.Access(at, r.ce, r.addr, r.words)
		}
		return len(in)
	})
}
