package gmem

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// TestBatchedWalkMatchesSorted drives the run-batched walk (Access on a
// healthy machine) and the counting-sort walk (forced through access)
// with the same random traffic on every family member and checks that
// every result and statistic agrees. Mid-sequence it inflates a module,
// degrades a stage-1 port, and finally takes a module offline, after
// which both memories take the counting-sort walk.
func TestBatchedWalkMatchesSorted(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cfg := range arch.Families() {
		for _, seed := range seeds {
			checkWalksAgree(t, cfg, seed, 400)
		}
	}
}

func checkWalksAgree(t *testing.T, cfg arch.Config, seed int64, ops int) {
	t.Helper()
	cost := arch.DefaultCosts()
	got, ref := New(cfg, cost), New(cfg, cost)
	rng := rand.New(rand.NewSource(seed))
	both := func(f func(m *Memory)) { f(got); f(ref) }
	var at sim.Time
	for op := 0; op < ops; op++ {
		switch op {
		case ops / 4:
			mod, factor := rng.Intn(cfg.GMModules), 1.5+2*rng.Float64()
			both(func(m *Memory) { m.InflateModule(mod, factor) })
		case ops / 2:
			port, factor := rng.Intn(cfg.NetWidth()), 1.5+2*rng.Float64()
			both(func(m *Memory) { m.Net().Forward.DegradePort(1, port, factor) })
		case 3 * ops / 4:
			mod := rng.Intn(cfg.GMModules)
			both(func(m *Memory) { m.OfflineModule(mod) })
		}
		at += sim.Time(rng.Intn(8))
		ce := cfg.CEByGlobal(rng.Intn(cfg.CEs()))
		// Half the vectors start in the last eighth of the modules, so
		// many wrap past the last module.
		addr := rng.Int63n(4 * int64(cfg.GMModules))
		if rng.Intn(2) == 0 {
			addr = int64(cfg.GMModules - 1 - rng.Intn(cfg.GMModules/8+1))
		}
		words := 1 + rng.Intn(2*cfg.GMModules)
		d1, q1 := got.Access(at, ce, addr, words)
		d2, q2 := ref.access(at, ce, addr, words, true)
		if d1 != d2 || q1 != q2 {
			t.Fatalf("%s seed %d op %d (ce %v addr %d words %d): batched (%d, %d), sorted (%d, %d)",
				cfg.Name, seed, op, ce, addr, words, d1, q1, d2, q2)
		}
		if op%16 == 0 || op == ops-1 {
			compareMemories(t, cfg, seed, op, at, got, ref)
		}
	}
}

func compareMemories(t *testing.T, cfg arch.Config, seed int64, op int, now sim.Time, got, ref *Memory) {
	t.Helper()
	fail := func(what string, a, b any) {
		t.Fatalf("%s seed %d op %d: %s: batched %+v, sorted %+v", cfg.Name, seed, op, what, a, b)
	}
	if a, b := got.Stats(), ref.Stats(); a != b {
		fail("Stats", a, b)
	}
	if a, b := got.Net().Stats(), ref.Net().Stats(); a != b {
		fail("Net().Stats", a, b)
	}
	an, ad := got.Net().MaxPortDelay()
	bn, bd := ref.Net().MaxPortDelay()
	if an != bn || ad != bd {
		fail("MaxPortDelay", []any{an, ad}, []any{bn, bd})
	}
	if a, b := got.ModuleUtilization(now+1), ref.ModuleUtilization(now+1); !reflect.DeepEqual(a, b) {
		fail("ModuleUtilization", a, b)
	}
	if a, b := got.ModuleBacklog(now), ref.ModuleBacklog(now); a != b {
		fail("ModuleBacklog", a, b)
	}
}

// TestAccessZeroAlloc pins Memory.Access, healthy and with an inflated
// module, to zero allocations per call on a two-stage and a three-stage
// machine.
func TestAccessZeroAlloc(t *testing.T) {
	for _, cfg := range []arch.Config{arch.Scaled256, arch.Deep64} {
		for _, inflated := range []bool{false, true} {
			m := New(cfg, arch.DefaultCosts())
			if inflated {
				m.InflateModule(3, 2)
			}
			ce := cfg.CEByGlobal(cfg.CEs() - 1)
			var at sim.Time
			addr := int64(0)
			allocs := testing.AllocsPerRun(200, func() {
				at += 5
				addr += 37
				m.Access(at, ce, addr, 1+int(addr)%(2*cfg.GMModules))
			})
			if allocs != 0 {
				t.Errorf("%s inflated=%v: Access allocates %.1f/op, want 0", cfg.Name, inflated, allocs)
			}
		}
	}
}

// BenchmarkAccess times Memory.Access on a mixed stream of vector
// lengths and start modules, wrapping included.
func BenchmarkAccess(b *testing.B) {
	for _, cfg := range []arch.Config{arch.Cedar32, arch.Scaled256, arch.Deep64} {
		b.Run(cfg.Name, func(b *testing.B) {
			m := New(cfg, arch.DefaultCosts())
			rng := rand.New(rand.NewSource(1))
			type op struct {
				ce    arch.CEID
				addr  int64
				words int
			}
			ops := make([]op, 1024)
			for i := range ops {
				ops[i] = op{cfg.CEByGlobal(rng.Intn(cfg.CEs())), rng.Int63n(1 << 20), 1 + rng.Intn(64)}
			}
			var at sim.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := ops[i%len(ops)]
				at += 3
				m.Access(at, o.ce, o.addr, o.words)
			}
		})
	}
}
