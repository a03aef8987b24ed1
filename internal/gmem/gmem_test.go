package gmem

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/sim"
)

func mem() *Memory { return New(arch.Cedar32, arch.DefaultCosts()) }

func TestModuleInterleaving(t *testing.T) {
	m := mem()
	for addr := int64(0); addr < 64; addr++ {
		if got, want := m.Module(addr), int(addr%32); got != want {
			t.Fatalf("Module(%d) = %d, want %d", addr, got, want)
		}
	}
}

func TestSingleWordLatencyMatchesIdeal(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	done, queued := m.Access(0, ce, 0, 1)
	if queued != 0 {
		t.Fatalf("lone access queued %d", queued)
	}
	if got := sim.Duration(done); got != m.IdealLatency(1) {
		t.Fatalf("latency %d != ideal %d", got, m.IdealLatency(1))
	}
}

func TestVectorSpreadsAcrossModules(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	// A 32-word vector touches all modules; each serves one word, so
	// the module phase should take one module's latency, not 32x.
	done32, _ := m.Access(0, ce, 0, 32)
	m2 := mem()
	done1, _ := m2.Access(0, ce, 0, 1)
	// The vector pays port occupancy for 32 words but only one word of
	// occupancy per module: far less than 32 sequential accesses.
	if done32 >= 32*done1 {
		t.Fatalf("vector access not pipelined: 32 words took %d, single took %d", done32, done1)
	}
}

func TestSuccessiveRequestsSameModuleConflict(t *testing.T) {
	// The paper's 1-processor example: two requests in successive
	// cycles to the same module delay the second.
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	done1, q1 := m.Access(0, ce, 0, 1)
	_, q2 := m.Access(1, ce, 0, 1) // same module, next cycle
	if q1 != 0 {
		t.Fatalf("first access queued %d", q1)
	}
	if q2 == 0 {
		t.Fatal("second access to same module saw no conflict")
	}
	_ = done1
}

func TestDifferentModulesNoConflict(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	ce2 := arch.CEID{Cluster: 1, Local: 0}
	_, q1 := m.Access(0, ce, 0, 1)
	_, q2 := m.Access(0, ce2, 9, 1) // different module, different route
	if q1 != 0 || q2 != 0 {
		t.Fatalf("independent accesses queued %d, %d", q1, q2)
	}
}

func TestContentionGrowsWithCompetitors(t *testing.T) {
	cfg := arch.Cedar32
	var prev sim.Duration = -1
	for _, n := range []int{1, 8, 32} {
		m := New(cfg, arch.DefaultCosts())
		var total sim.Duration
		for g := 0; g < n; g++ {
			_, q := m.Access(0, cfg.CEByGlobal(g%32), int64(g*64), 64)
			total += q
		}
		if total <= prev {
			t.Fatalf("%d competitors: queueing %d not greater than previous %d", n, total, prev)
		}
		prev = total
	}
}

// invariantConfigs covers the paper's Cedar, a wide two-stage machine,
// and both three-stage members, where several modules share one
// stage-1 port.
var invariantConfigs = []arch.Config{arch.Cedar32, arch.Scaled256, arch.Deep64, arch.Scaled1024}

func TestStatsConsistency(t *testing.T) {
	for _, cfg := range invariantConfigs {
		// From module 0 every CE hits modules 0..15; from the last eight
		// modules the same vector wraps onto modules 0..7.
		for _, addr := range []int64{0, int64(cfg.GMModules - 8)} {
			m := New(cfg, arch.DefaultCosts())
			n := cfg.CEs()
			for g := 0; g < n; g++ {
				m.Access(0, cfg.CEByGlobal(g), addr, 16) // contention
			}
			st := m.Stats()
			if st.Accesses != uint64(n) || st.Words != uint64(n*16) {
				t.Fatalf("%s addr %d: accesses=%d words=%d", cfg.Name, addr, st.Accesses, st.Words)
			}
			if st.StallTotal < st.IdealTotal {
				t.Fatalf("%s addr %d: stall < ideal", cfg.Name, addr)
			}
			// Component delays overlap, so their sum bounds the
			// critical-path excess from above.
			if got := st.StallTotal - st.IdealTotal; got > st.ModuleDelay+st.NetworkDelay {
				t.Fatalf("%s addr %d: critical-path excess %d exceeds component sum %d",
					cfg.Name, addr, got, st.ModuleDelay+st.NetworkDelay)
			}
		}
	}
}

func TestIdealLatencyMonotoneInWords(t *testing.T) {
	m := mem()
	prev := sim.Duration(0)
	for _, w := range []int{1, 2, 8, 32, 64, 256} {
		l := m.IdealLatency(w)
		if l <= prev {
			t.Fatalf("IdealLatency(%d) = %d not > previous %d", w, l, prev)
		}
		prev = l
	}
}

func TestQuickAccessNeverFasterThanIdeal(t *testing.T) {
	// Invariants under arbitrary traffic: queueing is never negative,
	// and an access can never complete faster than streaming its words
	// through the CE's return link plus the fixed path latencies.
	// Vectors reach twice the module count, so they also wrap.
	cost := arch.DefaultCosts()
	for _, cfg := range invariantConfigs {
		f := func(ops []struct {
			CE    uint16
			Addr  uint16
			Words uint16
		}) bool {
			m := New(cfg, cost)
			at := sim.Time(0)
			for _, op := range ops {
				w := int(op.Words)%(2*cfg.GMModules) + 1
				ce := cfg.CEByGlobal(int(op.CE) % cfg.CEs())
				done, queued := m.Access(at, ce, int64(op.Addr), w)
				if queued < 0 {
					return false
				}
				floor := sim.Duration(int64(w)*cost.PortCyclesPerWord) + m.IdealLatency(1)/2
				if done-at < floor {
					return false
				}
				at += 3
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}
