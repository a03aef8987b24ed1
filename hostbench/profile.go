package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// bucketNames are the layers profile self time is summed into: the
// repository's packages by module name, with sim.(*CalendarStore) split
// out as calendar, the Go runtime split into scheduling, garbage
// collection and the rest, the remaining standard library, and the
// benchmark itself.
var bucketNames = []string{
	"sim", "calendar", "network", "gmem", "cluster", "cfrt", "xylem",
	"cedar", "core", "statfx", "metricreg", "metrics", "perfect", "engine",
	"scenario", "resultcache", "serve", "obs", "other_repro",
	"runtime.sched", "runtime.gc", "runtime.other", "stdlib", "bench",
}

// schedFuncs are the runtime functions that park, ready and hand off
// goroutines: channel operations, the scheduler loop, futexes and the
// runtime's own locks.
var schedFuncs = []string{
	"gopark", "goready", "ready", "park_m", "chanparkcommit", "parkunlock_c",
	"chansend", "chanrecv", "send", "recv", "selectgo", "closechan",
	"(*waitq).", "futex", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
	"schedule", "findRunnable", "execute", "mcall", "gogo", "goexit",
	"runqget", "runqput", "runqgrab", "runqsteal", "stealWork", "wakep",
	"startm", "stopm", "mPark", "notesleep", "notewakeup", "semasleep",
	"semawakeup", "casgstatus", "(*guintptr).cas", "resetspinning",
	"acquirep", "releasep", "handoffp", "injectglist", "checkTimers",
	"procyield", "osyield", "netpoll", "gosched", "goschedImpl", "newproc",
	"(*mutex).", "lock", "unlock", "sellock", "selunlock",
}

// gcPrefixes mark runtime functions of the garbage collector: marking,
// scanning, sweeping, scavenging and write barriers.
var gcPrefixes = []string{
	"gc", "(*gc", "mark", "scan", "greyobject", "findObject", "wbBuf",
	"bgsweep", "sweepone", "(*mspan).sweep", "(*sweepLocked)", "bgscavenge",
	"(*scavenger", "(*pageAlloc).scavenge", "spanOf", "heapBits",
	"typePointers", "(*mspan).typePointers", "(*mspan).heapBits",
	"(*gcWork)", "(*gcBits)", "(*mheap).freeSpan", "(*mheap).reclaim",
}

// bucket returns the layer a profiled function's self time belongs to.
func bucket(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	switch {
	case strings.HasPrefix(fn, "repro/internal/sim.(*CalendarStore)"):
		return "calendar"
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range bucketNames {
			if b == pkg {
				return b
			}
		}
		return "other_repro"
	case strings.HasPrefix(fn, "repro."):
		return "cedar"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "runtime.gc"
			}
		}
		for _, s := range schedFuncs {
			if name == s || (strings.HasSuffix(s, ".") && strings.HasPrefix(name, s)) {
				return "runtime.sched"
			}
		}
		return "runtime.other"
	case strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime.other"
	}
	return "stdlib"
}

// startProfile starts a CPU profile written to path; the returned
// function stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileBuckets sums a CPU profile's self time per layer bucket, in
// seconds, using the local go tool pprof.
func profileBuckets(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return aggregateTop(strings.NewReader(string(out)))
}

// aggregateTop parses `go tool pprof -top` output and sums the flat
// column per bucket.
func aggregateTop(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	header := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !header {
			header = strings.HasPrefix(line, "flat ")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		secs, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		name := strings.Join(f[5:], " ")
		out[bucket(name)] += secs
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no flat/cum table")
	}
	return out, nil
}

// parseDuration reads a pprof time value such as 1.20s, 310ms or 50us.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"mins", 60}, {"min", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			return x * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
