// Package gmem models the family's shared global memory: GMModules
// independent modules (32 on the paper's Cedar), double-word (8-byte)
// interleaved and aligned, each taking 4 processor clock cycles to
// process a request (Sections 2 and 7 of the paper). Requests reach
// the modules through the forward shuffle-exchange network and replies
// return through the separate return network (package network); every
// fan-out size below — module count, group structure, stage count —
// derives from the arch.Config rather than Cedar constants.
//
// Addresses are in units of 8-byte words. A vector access of W words
// with stride 1 spreads across min(W, modules) modules; module
// occupancy conflicts (two requests in successive cycles to the same
// module delay the second — the paper's 1-processor example) and
// cross-CE contention both emerge from per-module calendar
// reservations.
//
// Reservation order: a calendar reservation depends only on that
// calendar's earlier reservations and on its own request time, so an
// access must keep the order of reservations on each calendar — groups
// ascending, and a group's slices ascending in vector order — while
// reservations on different calendars may be made in any order. With
// no module offline, Access relies on this to book a vector as
// contiguous module runs, one run reservation per network stage and
// one on the modules, instead of one slice at a time. An offline module
// breaks the runs, and Access then takes the per-slice counting-sort
// walk; both walks give identical results.
package gmem

import (
	"repro/internal/arch"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Memory is the global memory with its interconnection networks.
type Memory struct {
	cfg  arch.Config
	cost arch.CostModel
	net  *network.Pair
	// modules holds every module's conveyor state struct-of-arrays
	// (entry mod is module mod) — the dense layout the per-access loop
	// walks instead of one heap object per module.
	modules *sim.CalendarStore
	rec     *obs.Recorder

	// Scratch buffers reused across Access calls to keep the hot path
	// allocation-free. A Memory belongs to exactly one kernel and the
	// simulation of one machine is single-threaded, so plain reuse is
	// safe. arrive holds a module run's input arrival times for the
	// run-batched walk. The rest serve the counting-sort walk:
	// scrMod/scrW/scrGroup describe each touched slice of the current
	// vector; order lists slice indices bucketed by group (ascending
	// index within each group); grpWords/grpCount/grpOff are per-group
	// accumulators.
	arrive   []sim.Time
	scrMod   []int
	scrW     []int
	scrGroup []int
	order    []int
	grpWords []int
	grpCount []int
	grpOff   []int

	// Degraded-mode state: per-module service-time inflation factors
	// (0 or 1 = healthy) and offline flags. Requests to an offline
	// module are remapped to the next online module (the spare-module
	// fallback), paying a fixed remap penalty per slice.
	inflate  []float64
	offline  []bool
	nOffline int

	accesses   uint64
	words      uint64
	stallTotal sim.Duration // total (completion - request) beyond zero
	idealTotal sim.Duration // what the same accesses would cost uncontended
	remapped   uint64       // vector slices redirected off an offline module
}

// remapPenaltyCycles is the extra module occupancy a redirected slice
// pays: the fallback module must consult the remap table before
// serving foreign addresses.
const remapPenaltyCycles = 16

// New creates the global memory for a configuration.
func New(cfg arch.Config, cost arch.CostModel) *Memory {
	m := &Memory{
		cfg:     cfg,
		cost:    cost,
		net:     network.NewPair(cfg, cost),
		modules: sim.NewCalendarStore(cfg.GMModules),
	}
	// A vector touches at most GMModules slices and Groups() groups,
	// and a module run stays inside one group, so the scratch buffers
	// are sized once here and never grow.
	m.arrive = make([]sim.Time, cfg.GroupSpan())
	m.scrMod = make([]int, cfg.GMModules)
	m.scrW = make([]int, cfg.GMModules)
	m.scrGroup = make([]int, cfg.GMModules)
	m.order = make([]int, cfg.GMModules)
	m.grpWords = make([]int, cfg.Groups())
	m.grpCount = make([]int, cfg.Groups())
	m.grpOff = make([]int, cfg.Groups())
	return m
}

// Net exposes the network pair (for hot-spot statistics).
func (m *Memory) Net() *network.Pair { return m.net }

// SetRecorder arms the observability recorder: accesses whose
// queueing delay reaches the recorder's slow-stall threshold post a
// hot-spot instant naming the access's home module. A nil recorder
// disarms.
func (m *Memory) SetRecorder(r *obs.Recorder) { m.rec = r }

func (m *Memory) ensureFaultState() {
	if m.inflate == nil {
		m.inflate = make([]float64, m.cfg.GMModules)
		m.offline = make([]bool, m.cfg.GMModules)
	}
}

// InflateModule multiplies module mod's service time (latency and
// per-word transfer) by factor for all subsequent accesses. Factors
// <= 1 restore nominal speed.
func (m *Memory) InflateModule(mod int, factor float64) {
	m.ensureFaultState()
	m.inflate[mod] = factor
}

// OfflineModule takes module mod out of service: subsequent accesses
// that map to it are redirected to the next online module (wrapping),
// paying a remap penalty per redirected slice. The last online module
// cannot be taken offline; OfflineModule reports whether the module is
// now offline.
func (m *Memory) OfflineModule(mod int) bool {
	m.ensureFaultState()
	if m.offline[mod] {
		return true
	}
	if m.nOffline >= m.cfg.GMModules-1 {
		return false
	}
	m.offline[mod] = true
	m.nOffline++
	return true
}

// OfflineModules returns how many modules are currently out of service.
func (m *Memory) OfflineModules() int { return m.nOffline }

// effModule returns the module that actually serves addresses mapping
// to mod: mod itself when online, otherwise the next online module.
func (m *Memory) effModule(mod int) int {
	if m.nOffline == 0 || !m.offline[mod] {
		return mod
	}
	for i := 1; i < m.cfg.GMModules; i++ {
		e := (mod + i) % m.cfg.GMModules
		if !m.offline[e] {
			return e
		}
	}
	return mod
}

// moduleBusy returns module mod's occupancy for a w-word slice,
// including any latency inflation and the remap penalty when the slice
// was redirected from another (offline) module.
func (m *Memory) moduleBusy(mod int, w int, remapped bool) sim.Duration {
	busy := m.cost.ModuleLatency + int64(w)*m.cost.ModuleCyclesPerWord
	if m.inflate != nil && m.inflate[mod] > 1 {
		busy = int64(float64(busy)*m.inflate[mod] + 0.5)
	}
	if remapped {
		busy += remapPenaltyCycles
	}
	return sim.Duration(busy)
}

// Module returns the module index an address maps to (double-word
// interleaved).
func (m *Memory) Module(addr int64) int {
	mod := int(addr % int64(m.cfg.GMModules))
	if mod < 0 {
		mod += m.cfg.GMModules
	}
	return mod
}

// Access performs a read or write of words 8-byte words starting at
// addr (stride 1) on behalf of the CE, with the request issued at
// time at. It returns the completion time (data available at the CE)
// and the portion of the elapsed time attributable to queueing
// (network port and memory module contention).
//
// The CE process is expected to Hold until the returned completion
// time and charge the stall to its account; Memory itself never
// blocks.
func (m *Memory) Access(at sim.Time, ce arch.CEID, addr int64, words int) (done sim.Time, queued sim.Duration) {
	return m.access(at, ce, addr, words, m.nOffline > 0)
}

// access is Access with the walk chosen by the caller: the counting
// sort when sorted is set, the run-batched walk otherwise. Only an
// offline module needs the sort; tests force it on a healthy machine
// to check the batched walk against it.
func (m *Memory) access(at sim.Time, ce arch.CEID, addr int64, words int, sorted bool) (done sim.Time, queued sim.Duration) {
	if words < 1 {
		words = 1
	}
	m.accesses++
	m.words += uint64(words)

	// Distribute the stride-1 vector round-robin across the modules
	// starting at the address's module, then group the touched modules
	// by the top-level network group (the subtree behind one stage-0
	// output port) that owns them: each group's slice of the vector is
	// an independent burst through its own ports.
	firstModule := m.Module(addr)
	inject := at + sim.Duration(m.cost.GIFLatency)
	var lastReady sim.Time
	if sorted {
		lastReady = m.walkSorted(ce, firstModule, words, inject)
	} else {
		lastReady = m.walkRuns(ce, firstModule, words, inject)
	}

	// Final return stage: every reply word funnels through the CE's own
	// data link.
	back, _ := m.net.Return.Port(m.cfg.NetStages-1, m.net.RetCEPort(ce), lastReady, words)
	done = back + sim.Duration(m.cost.GIFLatency)

	// Per-component queue delays (ports and modules) overlap in time
	// across the fanned-out slices, so their sum overstates the damage;
	// the access's contention is its critical-path excess over the
	// uncontended latency. The calendars keep the per-component sums.
	queued = done - at - m.IdealLatency(words)
	if queued < 0 {
		queued = 0
	}
	if m.rec != nil && queued >= m.rec.SlowStall() {
		m.rec.Instant(obs.TrackMachine, "gm-hot", obs.CatMem, at, int64(firstModule))
	}
	m.stallTotal += done - at
	m.idealTotal += done - at - queued
	return done, queued
}

// walkRuns reserves a vector's group bursts, subtree ports and modules
// on a machine with no offline module, and returns the time the last
// group's reply has cleared the return stages before the CE's link.
//
// Slice i of the vector (0 <= i < touched) goes to module first+i,
// wrapping past the last module, and carries perModule words plus one
// more when i < extra. So the touched modules are one contiguous range
// that may wrap: inside a group they are at most two module runs, the
// main run from first and then the wrapped tail from module 0, and
// each run splits at most once where i reaches extra. Each uniform run
// is booked with one run reservation per stage and one on the modules.
// Walking groups ascending and the runs of a group in slice order keeps
// every calendar's reservation order that of the per-slice walk, so the
// result is exactly walkSorted's.
func (m *Memory) walkRuns(ce arch.CEID, first, words int, inject sim.Time) (lastReady sim.Time) {
	nMod := m.cfg.GMModules
	touched := words
	if touched > nMod {
		touched = nMod
	}
	perModule := words / touched
	extra := words % touched
	// Main run: modules first..mainEnd-1 hold slices 0..mainEnd-first-1.
	// Wrapped tail: modules 0..wrapEnd-1 hold the remaining slices.
	mainEnd := first + touched
	wrapEnd := 0
	if mainEnd > nMod {
		wrapEnd = mainEnd - nMod
		mainEnd = nMod
	}
	// Modules below these bounds carry the extra word (slice i < extra).
	mainSplit := first + extra
	wrapSplit := first + extra - nMod
	span := m.cfg.GroupSpan()
	for g, glo := 0, 0; glo < nMod; g, glo = g+1, glo+span {
		ghi := glo + span
		mlo, mhi := max(glo, first), min(ghi, mainEnd)
		whi := min(ghi, wrapEnd)
		if mlo >= mhi && glo >= whi {
			continue
		}
		groupWords := 0
		if mlo < mhi {
			groupWords += (mhi-mlo)*perModule + max(0, min(mhi, mainSplit)-mlo)
		}
		if glo < whi {
			groupWords += (whi-glo)*perModule + max(0, min(whi, wrapSplit)-glo)
		}
		// Forward stage 0: the cluster's port toward group g's subtree.
		a0, _ := m.net.Forward.Port(0, m.net.FwdStage0Port(ce, g), inject, groupWords)
		var groupReady sim.Time
		if mlo < mhi {
			groupReady = max(groupReady, m.bookRuns(mlo, mhi, mainSplit, a0, perModule))
		}
		if glo < whi {
			groupReady = max(groupReady, m.bookRuns(glo, whi, wrapSplit, a0, perModule))
		}
		// Return stages 0..k-2: the group's switch back toward the
		// cluster, then the cluster's subtree, as one batched walk.
		rIn, _ := m.net.ReserveRetGroup(g, ce, groupReady, groupWords)
		lastReady = max(lastReady, rIn)
	}
	return lastReady
}

// bookRuns books modules lo..hi-1, all reached from stage 0 at a0: those
// below split carry perModule+1 words, the rest perModule. It returns
// the latest module completion.
func (m *Memory) bookRuns(lo, hi, split int, a0 sim.Time, perModule int) sim.Time {
	split = min(max(split, lo), hi)
	var ready sim.Time
	if lo < split {
		ready = m.bookRun(lo, split-lo, a0, perModule+1)
	}
	if split < hi {
		ready = max(ready, m.bookRun(split, hi-split, a0, perModule))
	}
	return ready
}

// bookRun carries a w-word slice to each of the n modules from lo
// through the forward subtree and books the modules at their arrival
// times, per module when a module's service time is inflated. It
// returns the latest module completion.
func (m *Memory) bookRun(lo, n int, a0 sim.Time, w int) sim.Time {
	arrive := m.arrive[:n]
	m.net.ReserveFwdSubtreeRun(lo, a0, w, arrive)
	if m.inflate == nil {
		last, _ := m.modules.ReserveRun(lo, arrive, m.moduleBusy(lo, w, false))
		return last
	}
	var last sim.Time
	for j, aIn := range arrive {
		_, end := m.modules.Reserve(lo+j, aIn, m.moduleBusy(lo+j, w, false))
		last = max(last, end)
	}
	return last
}

// walkSorted is the general walk, needed when a module is offline: a
// redirected slice travels to, and groups with, its fallback module,
// so a group's modules need not be contiguous and one module may serve
// two slices. One pass over the touched slices classifies each by its
// serving module and top-level group, then a counting sort buckets
// slice indices by group. The per-group walk then visits exactly the
// members of each group in the reservation order: groups ascending,
// slices ascending within each group. It returns what walkRuns does.
func (m *Memory) walkSorted(ce arch.CEID, firstModule, words int, inject sim.Time) (lastReady sim.Time) {
	touched := words
	if touched > m.cfg.GMModules {
		touched = m.cfg.GMModules
	}
	perModule := words / touched
	extra := words % touched
	groupSpan := m.cfg.GroupSpan()
	nGroups := m.cfg.Groups()

	for g := 0; g < nGroups; g++ {
		m.grpWords[g] = 0
		m.grpCount[g] = 0
	}
	for i := 0; i < touched; i++ {
		home := firstModule + i
		if home >= m.cfg.GMModules {
			home -= m.cfg.GMModules
		}
		mod := home
		if m.nOffline > 0 {
			mod = m.effModule(home)
		}
		w := perModule
		if i < extra {
			w++
		}
		g := mod / groupSpan
		m.scrMod[i] = mod
		m.scrW[i] = w
		m.scrGroup[i] = g
		m.grpWords[g] += w
		m.grpCount[g]++
	}
	pos := 0
	for g := 0; g < nGroups; g++ {
		m.grpOff[g] = pos
		pos += m.grpCount[g]
	}
	for i := 0; i < touched; i++ {
		g := m.scrGroup[i]
		m.order[m.grpOff[g]] = i
		m.grpOff[g]++
	}

	idx := 0
	for g := 0; g < nGroups; g++ {
		cnt := m.grpCount[g]
		if cnt == 0 {
			continue
		}
		groupWords := m.grpWords[g]
		// Forward stage 0: the cluster's port toward group g's subtree.
		a0, _ := m.net.Forward.Port(0, m.net.FwdStage0Port(ce, g), inject, groupWords)
		// Forward stages 1..k-1 and the modules themselves, per module,
		// each subtree traversed as one batched walk.
		var groupReady sim.Time
		for j := 0; j < cnt; j++ {
			i := m.order[idx]
			idx++
			mod := m.scrMod[i]
			w := m.scrW[i]
			home := firstModule + i
			if home >= m.cfg.GMModules {
				home -= m.cfg.GMModules
			}
			if mod != home {
				m.remapped++
			}
			aIn, _ := m.net.ReserveFwdSubtree(mod, a0, w)
			_, end := m.modules.Reserve(mod, aIn, m.moduleBusy(mod, w, mod != home))
			groupReady = max(groupReady, end)
		}
		// Return stages 0..k-2: the group's switch back toward the
		// cluster, then the cluster's subtree, as one batched walk.
		rIn, _ := m.net.ReserveRetGroup(g, ce, groupReady, groupWords)
		lastReady = max(lastReady, rIn)
	}
	return lastReady
}

// ModuleBacklog returns the deepest module queue at time now: the
// largest span by which any module's next-free time exceeds now. It is
// the memory-side hot-spot pressure signal the time-series collector
// samples.
func (m *Memory) ModuleBacklog(now sim.Time) sim.Duration {
	return m.modules.MaxBacklog(now)
}

// IdealLatency returns the zero-contention completion time for an
// access of the given size — the minimum memory access latency of the
// configuration, which the paper notes is identical across all Cedar
// configurations.
func (m *Memory) IdealLatency(words int) sim.Duration {
	if words < 1 {
		words = 1
	}
	touched := words
	if touched > m.cfg.GMModules {
		touched = m.cfg.GMModules
	}
	perModule := (words + touched - 1) / touched
	groupSpan := m.cfg.GroupSpan()
	groups := (touched + groupSpan - 1) / groupSpan
	perGroup := (words + groups - 1) / groups
	inner := int64(m.cfg.NetStages - 1) // stages inside the subtrees
	// Mirror Access with zero queueing: stage-0 burst of the group
	// slice, the module slice through each subtree stage, module
	// occupancy, the group burst back through each return stage, then
	// the full vector through the CE's link; one stage latency per
	// stage per direction. For the two-stage Cedar network this is the
	// seed's 2*perGroup + perModule + words port-cycle formula.
	lat := 2*sim.Duration(m.cost.GIFLatency) +
		sim.Duration(2*int64(m.cfg.NetStages)*m.cost.StageLatency) +
		sim.Duration(int64(perGroup)*m.cost.PortCyclesPerWord) + // fwd stage-0
		sim.Duration(inner*int64(perModule)*m.cost.PortCyclesPerWord) + // fwd stages 1..k-1
		sim.Duration(m.cost.ModuleLatency+int64(perModule)*m.cost.ModuleCyclesPerWord) +
		sim.Duration(inner*int64(perGroup)*m.cost.PortCyclesPerWord) + // ret stages 0..k-2
		sim.Duration(int64(words)*m.cost.PortCyclesPerWord) // CE return link
	return lat
}

// Stats summarizes traffic and contention observed by the memory.
type Stats struct {
	Accesses     uint64
	Words        uint64
	StallTotal   sim.Duration // total request-to-completion time
	IdealTotal   sim.Duration // same, minus queueing
	ModuleDelay  sim.Duration // queueing at modules only
	NetworkDelay sim.Duration // queueing at network ports only
	Remapped     uint64       // slices redirected off offline modules
}

// Stats returns the memory's aggregate statistics.
func (m *Memory) Stats() Stats {
	st := Stats{
		Accesses:   m.accesses,
		Words:      m.words,
		StallTotal: m.stallTotal,
		IdealTotal: m.idealTotal,
		Remapped:   m.remapped,
	}
	st.ModuleDelay = m.modules.DelaySum()
	st.NetworkDelay = m.net.Stats().DelayTotal
	return st
}

// ModuleUtilization returns per-module busy fractions at time now —
// useful for spotting hot modules in tests and the trace tool.
func (m *Memory) ModuleUtilization(now sim.Time) []float64 {
	out := make([]float64, m.modules.Len())
	for i := range out {
		out[i] = m.modules.Utilization(i, now)
	}
	return out
}
