package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// tinyCfg is a two-chip MEUSI machine with two cores per chip and caches
// a few dozen lines deep. Its L3 has fewer sets than the L2s it backs, so an L3
// set can overflow while every L2 above it still has room for the lines
// of that set.
func tinyCfg() Config {
	cfg := DefaultConfig(4, MEUSI)
	cfg.CoresPerChip = 2
	cfg.L1Size, cfg.L1Ways = 256, 2  // 4 lines
	cfg.L2Size, cfg.L2Ways = 2048, 4 // 32 lines in 8 sets
	cfg.L3Size, cfg.L3Ways = 1024, 4 // 16 lines per chip in 4 sets
	cfg.L4Size, cfg.L4Ways = 2048, 2 // 32 lines per chip: 64 lines in 32 sets
	cfg.L3Banks, cfg.L4Banks, cfg.MemChannels = 1, 1, 1
	return cfg
}

// statsDigest is an FNV-64a hash over every Stats field.
func statsDigest(st Stats) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", st)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTinyMachinePaths drives the capacity and reduction paths that the
// Table 1 geometry never reaches at test sizes: L4 evictions of dirty
// lines with their writebacks to memory, L3 evictions that recall U copies
// from two cores of one chip, and a cross-chip reduction with hierarchical
// and with flat reductions. Each run checks its memory image and the
// coherence invariants, shows that its path's counter moved, and pins its
// Stats.
func TestTinyMachinePaths(t *testing.T) {
	// run simulates kernel on the tiny machine and checks what every run
	// must satisfy.
	run := func(t *testing.T, flat bool, alloc func(m *Machine) uint64, kernel func(base uint64) func(*Ctx), want func(m *Machine, base uint64) error) Stats {
		t.Helper()
		cfg := tinyCfg()
		cfg.FlatReductions = flat
		m := New(cfg)
		base := alloc(m)
		st := m.Run(kernel(base))
		if err := want(m, base); err != nil {
			t.Error(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Error(err)
		}
		return st
	}
	pin := func(t *testing.T, st Stats, want string) {
		t.Helper()
		if got := statsDigest(st); got != want {
			t.Errorf("stats digest %s, want %s; stats: %+v", got, want, st)
		}
	}

	t.Run("l4-dirty-evictions", func(t *testing.T) {
		// Every core writes its own 128-line region, then all four update
		// a second word of all 512 lines: eight times the L4's 64 lines,
		// so the L4 evicts dirty lines, some still held in U.
		const perCore = 128
		const lines = 4 * perCore
		st := run(t, false,
			func(m *Machine) uint64 { return m.AllocLines(lines) },
			func(base uint64) func(*Ctx) {
				return func(c *Ctx) {
					for k := 0; k < perCore; k++ {
						c.Store64(base+uint64(c.Tid()*perCore+k)*64, uint64(c.Tid())<<32|uint64(k))
					}
					c.Barrier()
					for k := 0; k < lines; k++ {
						c.CommAdd64(base+uint64(k)*64+8, 1)
					}
				}
			},
			func(m *Machine, base uint64) error {
				for k := 0; k < lines; k++ {
					a := base + uint64(k)*64
					tid, off := k/perCore, k%perCore
					if got, want := m.ReadWord64(a), uint64(tid)<<32|uint64(off); got != want {
						return fmt.Errorf("line %d word 0 = %#x, want %#x", k, got, want)
					}
					if got := m.ReadWord64(a + 8); got != 4 {
						return fmt.Errorf("line %d word 1 = %d, want 4", k, got)
					}
				}
				return nil
			})
		// Fills count in MemAccs; background writebacks add only bytes.
		if st.MemBytes <= 64*st.MemAccs {
			t.Errorf("no writebacks to memory: %d B for %d accesses", st.MemBytes, st.MemAccs)
		}
		pin(t, st, "2d7555e410b3d8b9")
	})

	t.Run("l3-recalls-u", func(t *testing.T) {
		// Cores 0 and 1 update eight lines that share one 4-way L3 set but
		// fall into two L2 sets, four lines each, which the 4-way L2s hold
		// without evicting. Every fifth distinct line overflows the L3
		// set, whose victim both cores hold in U.
		const lines, rounds = 8, 20
		st := run(t, false,
			func(m *Machine) uint64 { return m.AllocLines(4 * lines) },
			func(base uint64) func(*Ctx) {
				return func(c *Ctx) {
					if c.Chip() != 0 {
						return
					}
					for r := 0; r < rounds; r++ {
						for k := 0; k < lines; k++ {
							c.CommAdd64(base+uint64(4*k)*64, 1)
						}
					}
				}
			},
			func(m *Machine, base uint64) error {
				for k := 0; k < lines; k++ {
					if got := m.ReadWord64(base + uint64(4*k)*64); got != 2*rounds {
						return fmt.Errorf("line %d = %d, want %d", 4*k, got, 2*rounds)
					}
				}
				return nil
			})
		if st.PartialReductions == 0 {
			t.Error("no L3 eviction recalled a U copy")
		}
		pin(t, st, "634b9568d7c39050")
	})

	// reduce has all four cores update one line, then core 0 read it, in
	// rounds: each read reduces both chips' U copies at the L4.
	const rounds, perRound = 10, 5
	reduce := func(t *testing.T, flat bool) Stats {
		return run(t, flat,
			func(m *Machine) uint64 { return m.AllocLines(1) },
			func(base uint64) func(*Ctx) {
				return func(c *Ctx) {
					for r := 0; r < rounds; r++ {
						for i := 0; i < perRound; i++ {
							c.CommAdd64(base, 1)
						}
						c.Barrier()
						if c.Tid() == 0 {
							if got, want := c.Load64(base), uint64(4*perRound*(r+1)); got != want {
								panic(fmt.Sprintf("round %d read %d, want %d", r, got, want))
							}
						}
						c.Barrier()
					}
				}
			},
			func(m *Machine, base uint64) error {
				if got := m.ReadWord64(base); got != 4*perRound*rounds {
					return fmt.Errorf("counter = %d, want %d", got, 4*perRound*rounds)
				}
				return nil
			})
	}
	var hier, flat Stats
	t.Run("reductions-hier", func(t *testing.T) {
		hier = reduce(t, false)
		if hier.FullReductions == 0 {
			t.Error("no full reductions")
		}
		pin(t, hier, "e33b299a61a69fab")
	})
	t.Run("reductions-flat", func(t *testing.T) {
		flat = reduce(t, true)
		if flat.FullReductions != hier.FullReductions {
			t.Errorf("flat run reduced %d times, hierarchical %d", flat.FullReductions, hier.FullReductions)
		}
		if flat.Cycles <= hier.Cycles {
			t.Errorf("flat reductions took %d cycles, hierarchical %d: want more", flat.Cycles, hier.Cycles)
		}
		pin(t, flat, "4d8e1e7c620cc231")
	})
}
