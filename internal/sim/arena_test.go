package sim

import (
	"testing"
)

// arenaKernel is a small mixed workload tuned to touch every pooled
// structure: strided loads (L2/L3 evictions), contended commutative
// updates (U grants, reductions), stores (M lines, writebacks) and a
// barrier (scheduler park/release).
func arenaKernel(input, hist uint64, n int) func(c *Ctx) {
	return func(c *Ctx) {
		for i := 0; i < n; i++ {
			c.Load64(input + uint64(i%512)*64)
			c.CommAdd64(hist+uint64(c.Rand()%64)*8, 1)
			if i%8 == 0 {
				c.Store64(input+uint64(i%512)*64, uint64(i))
			}
		}
		c.Barrier()
		for i := 0; i < n/2; i++ {
			c.CommAdd64(hist+uint64(c.Rand()%8)*8, 1)
		}
	}
}

func runArenaKernel(t *testing.T, a *Arena, cfg Config) Stats {
	t.Helper()
	m := NewIn(a, cfg)
	input := m.Alloc(512*64, 64)
	hist := m.Alloc(64*8, 64)
	st := m.Run(arenaKernel(input, hist, 200))
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	m.Release()
	return st
}

func arenaConfigs() []Config {
	var out []Config
	for _, p := range []Protocol{MESI, MEUSI, MUSI, RMO} {
		for _, cores := range []int{4, 17} { // 17 crosses the chip boundary
			for _, seed := range []uint64{1, 9} {
				cfg := DefaultConfig(cores, p)
				cfg.L2Size = 4 << 10 // shrink so evictions happen
				cfg.L3Size = 64 << 10
				cfg.L4Size = 256 << 10
				cfg.Seed = seed
				out = append(out, cfg)
			}
		}
	}
	return out
}

// TestArenaReuseIdentical pins the arena's zero-on-reuse contract: a
// machine recycled through an arena — across protocol, seed AND shape
// changes — must produce byte-identical Stats to a fresh machine for
// every config. The config list deliberately interleaves shapes so the
// pool must reset rather than rebuild.
func TestArenaReuseIdentical(t *testing.T) {
	fresh := map[int]Stats{}
	for i, cfg := range arenaConfigs() {
		fresh[i] = runArenaKernel(t, nil, cfg)
	}
	a := NewArena()
	// Two passes through the same arena: the first pass populates the
	// pool (first occurrence of each shape builds, later ones recycle),
	// the second pass recycles everything.
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range arenaConfigs() {
			got := runArenaKernel(t, a, cfg)
			if got != fresh[i] {
				t.Fatalf("pass %d cfg %d (%v, %d cores, seed %d): arena stats differ from fresh machine\narena: %+v\nfresh: %+v",
					pass, i, cfg.Protocol, cfg.Cores, cfg.Seed, got, fresh[i])
			}
		}
	}
}

// TestArenaConstructionAllocFree pins the arena's purpose: once a shape is
// pooled, taking and releasing a machine allocates nothing.
func TestArenaConstructionAllocFree(t *testing.T) {
	cfg := DefaultConfig(8, MEUSI)
	a := NewArena()
	NewIn(a, cfg).Release() // populate the pool
	allocs := testing.AllocsPerRun(10, func() {
		NewIn(a, cfg).Release()
	})
	if allocs > 0 {
		t.Errorf("recycled machine construction allocates %.1f objects/op, want 0", allocs)
	}
}

// TestArenaReleaseSemantics covers the Release edge cases: nil-arena
// machines ignore Release, double Release panics.
func TestArenaReleaseSemantics(t *testing.T) {
	New(DefaultConfig(1, MESI)).Release()        // no-op
	NewIn(nil, DefaultConfig(1, MESI)).Release() // no-op

	a := NewArena()
	m := NewIn(a, DefaultConfig(1, MESI))
	m.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	m.Release()
}

// TestArenaRunAfterReuse exercises the reused scheduler scratch: a pooled
// machine must run the barrier paths correctly on its second life. The
// 272-core machine sizes the loser tree's treeKeys/treeLos scratch at 512
// leaves, so its second run reuses wide scratch with stale keys in it.
func TestArenaRunAfterReuse(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(4, MEUSI), smallCfg(272, MEUSI)} {
		a := NewArena()
		first := runArenaKernel(t, a, cfg)
		second := runArenaKernel(t, a, cfg)
		if first != second {
			t.Errorf("%d cores twice through one arena differs:\n1st %+v\n2nd %+v", cfg.Cores, first, second)
		}
	}
}

// TestArenaResetUnfreezes: a recycled machine forgets what its last run
// froze. A spec that freezes a large input and a spec that writes the
// same addresses alternate on one pooled machine; the writes succeed and
// match a fresh machine's run.
func TestArenaResetUnfreezes(t *testing.T) {
	const lines = 512
	cfg := smallCfg(4, MEUSI)
	frozenRun := func(a *Arena) {
		m := NewIn(a, cfg)
		in := m.Alloc(lines*64, 64)
		m.Freeze(in, lines*64)
		m.Run(func(c *Ctx) {
			for i := 0; i < lines; i += 4 {
				c.Load64(in + uint64(i+c.Tid())*64)
			}
		})
		m.Release()
	}
	writeRun := func(a *Arena) (Stats, uint64) {
		m := NewIn(a, cfg)
		in := m.Alloc(lines*64, 64)
		m.Freeze(in, 64) // a smaller frozen range leaves the rest writable
		st := m.Run(func(c *Ctx) {
			for i := 1; i < lines; i++ {
				c.CommAdd64(in+uint64(i)*64, 1)
				c.Store64(in+uint64(i)*64+8, uint64(i))
			}
		})
		sum := m.ReadWord64(in + (lines-1)*64)
		m.Release()
		return st, sum
	}
	want, wantSum := writeRun(nil)
	if wantSum != uint64(cfg.Cores) {
		t.Fatalf("fresh machine: last line %d, want %d", wantSum, cfg.Cores)
	}
	a := NewArena()
	for round := 0; round < 2; round++ {
		frozenRun(a)
		got, sum := writeRun(a)
		if got != want || sum != wantSum {
			t.Fatalf("round %d: recycled machine after a frozen spec: stats %+v sum %d, want %+v sum %d", round, got, sum, want, wantSum)
		}
	}
	if warm, _ := a.PoolStats(); warm != 3 {
		t.Errorf("arena served %d warm machines, want 3", warm)
	}
	// Freezing nothing puts a recycled machine back on the one-compare path.
	if m := NewIn(a, cfg); len(m.frozen) != 0 {
		t.Errorf("recycled machine keeps a %d-word frozen bitmap", len(m.frozen))
	}
}
