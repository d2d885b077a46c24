package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func smallCfg(cores int, p Protocol) Config {
	cfg := DefaultConfig(cores, p)
	// Small caches so tests exercise evictions.
	cfg.L2Size = 4 << 10
	cfg.L3Size = 64 << 10
	cfg.L4Size = 256 << 10
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(16, MESI)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores must be invalid")
	}
	bad = cfg
	bad.L3Banks = 0
	if bad.Validate() == nil {
		t.Error("zero banks must be invalid")
	}
	bad = cfg
	bad.L1Ways = 0
	if bad.Validate() == nil {
		t.Error("zero ways must be invalid")
	}
	bad = cfg
	bad.Cores, bad.CoresPerChip = 128, 128
	if bad.Validate() == nil {
		t.Error("a chip wider than the 64-bit sharer vector must be invalid")
	}
	widest := cfg
	widest.Cores, widest.CoresPerChip = maxCores, sharerBits
	if err := widest.Validate(); err != nil {
		t.Errorf("64 chips of 64 cores must be valid: %v", err)
	}
}

func TestChipsScaling(t *testing.T) {
	for _, c := range []struct{ cores, chips int }{
		{1, 1}, {8, 1}, {16, 1}, {17, 2}, {32, 2}, {64, 4}, {128, 8},
	} {
		cfg := DefaultConfig(c.cores, MESI)
		if got := cfg.Chips(); got != c.chips {
			t.Errorf("%d cores: %d chips, want %d", c.cores, got, c.chips)
		}
	}
}

func TestSingleCoreLoadStore(t *testing.T) {
	m := New(DefaultConfig(1, MESI))
	a := m.Alloc(1024, 64)
	m.WriteWord64(a, 7)
	var got uint64
	m.Run(func(c *Ctx) {
		got = c.Load64(a)
		c.Store64(a+8, got*3)
		c.Store32(a+16, 99)
	})
	if got != 7 {
		t.Errorf("load: got %d, want 7", got)
	}
	if v := m.ReadWord64(a + 8); v != 21 {
		t.Errorf("store: got %d, want 21", v)
	}
	if v := m.ReadWord32(a + 16); v != 99 {
		t.Errorf("store32: got %d, want 99", v)
	}
	st := m.Stats()
	if st.Accesses != 3 || st.Loads != 1 || st.Stores != 2 {
		t.Errorf("counts: %+v", st)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSub32Halves(t *testing.T) {
	m := New(DefaultConfig(1, MESI))
	a := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		c.Store32(a, 0x11111111)
		c.Store32(a+4, 0x22222222)
	})
	if v := m.ReadWord64(a); v != 0x2222222211111111 {
		t.Errorf("packed word: %#x", v)
	}
	if m.ReadWord32(a) != 0x11111111 || m.ReadWord32(a+4) != 0x22222222 {
		t.Error("32-bit halves wrong")
	}
}

// TestSharedCounterAllProtocols: the flagship correctness property — N cores
// each add to one shared counter; the final value must be exact under MESI
// (atomics), MEUSI (buffered commutative updates + reductions) and RMO.
func TestSharedCounterAllProtocols(t *testing.T) {
	const perCore = 200
	for _, p := range []Protocol{MESI, MEUSI, RMO} {
		for _, cores := range []int{1, 4, 16, 32} {
			m := New(smallCfg(cores, p))
			ctr := m.Alloc(64, 64)
			m.Run(func(c *Ctx) {
				for i := 0; i < perCore; i++ {
					c.CommAdd64(ctr, 1)
				}
			})
			want := uint64(perCore * cores)
			if got := m.ReadWord64(ctr); got != want {
				t.Errorf("%v/%d cores: counter=%d, want %d", p, cores, got, want)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%v/%d cores: %v", p, cores, err)
			}
		}
	}
}

// TestReadTriggersReduction: under MEUSI a read must observe every buffered
// update from every core, mid-run, not just at drain time.
func TestReadTriggersReduction(t *testing.T) {
	const cores = 8
	m := New(smallCfg(cores, MEUSI))
	ctr := m.Alloc(64, 64)
	reads := make([]uint64, cores)
	m.Run(func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.CommAdd64(ctr, 1)
		}
		c.Barrier()
		reads[c.Tid()] = c.Load64(ctr)
	})
	for tid, v := range reads {
		if v != 50*cores {
			t.Errorf("core %d read %d after barrier, want %d", tid, v, 50*cores)
		}
	}
	st := m.Stats()
	if st.FullReductions == 0 {
		t.Error("expected at least one full reduction")
	}
	if st.UGrants == 0 {
		t.Error("expected update-only grants")
	}
}

// TestMonotonicReads: for an increment-only counter, values observed by any
// single core must be non-decreasing — a consequence of coherence (Sec 3.3).
func TestMonotonicReads(t *testing.T) {
	for _, p := range []Protocol{MESI, MEUSI} {
		const cores = 8
		m := New(smallCfg(cores, p))
		ctr := m.Alloc(64, 64)
		bad := make([]bool, cores)
		m.Run(func(c *Ctx) {
			var last uint64
			for i := 0; i < 100; i++ {
				c.CommAdd64(ctr, 1)
				if i%7 == int(c.Rand()%7) {
					v := c.Load64(ctr)
					if v < last {
						bad[c.Tid()] = true
					}
					last = v
				}
			}
		})
		for tid, b := range bad {
			if b {
				t.Errorf("%v: core %d observed a decreasing counter", p, tid)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// TestMixedTypesSerialize: different commutative-update types to the same
// line must serialize via reductions and still produce exact results.
func TestMixedTypesSerialize(t *testing.T) {
	const cores = 8
	m := New(smallCfg(cores, MEUSI))
	addA := m.Alloc(64, 64) // add64 target, word 0
	orB := addA + 8         // or64 target, word 1 of the same line!
	m.Run(func(c *Ctx) {
		for i := 0; i < 60; i++ {
			if i%2 == 0 {
				c.CommAdd64(addA, 1)
			} else {
				c.CommOr64(orB, 1<<uint(c.Tid()))
			}
		}
	})
	if got := m.ReadWord64(addA); got != 30*cores {
		t.Errorf("adds: got %d, want %d", got, 30*cores)
	}
	wantOr := uint64(1<<cores) - 1
	if got := m.ReadWord64(orB); got != wantOr {
		t.Errorf("ors: got %#x, want %#x", got, wantOr)
	}
	if m.Stats().TypeSwitches == 0 {
		t.Error("expected type switches between add64 and or64")
	}
}

// TestFloatCAS: floating-point commutative adds under MESI run as CAS retry
// loops; the sum must still be exact for integers-valued floats.
func TestFloatCAS(t *testing.T) {
	for _, p := range []Protocol{MESI, MEUSI} {
		const cores = 8
		m := New(smallCfg(cores, p))
		acc := m.Alloc(64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 50; i++ {
				c.CommAddF64(acc, 1.0)
			}
		})
		got := math.Float64frombits(m.ReadWord64(acc))
		if got != 50*cores {
			t.Errorf("%v: float sum %v, want %d", p, got, 50*cores)
		}
	}
}

// TestEvictionPartialReduction: a footprint far larger than the private
// caches forces U-line evictions; totals must survive partial reductions.
func TestEvictionPartialReduction(t *testing.T) {
	const cores = 4
	cfg := smallCfg(cores, MEUSI)
	cfg.L2Size = 1 << 10 // 16 lines: heavy eviction pressure
	m := New(cfg)
	const nctr = 4096
	base := m.Alloc(nctr*8, 64)
	const perCore = 8000
	m.Run(func(c *Ctx) {
		for i := 0; i < perCore; i++ {
			k := c.RandN(nctr)
			c.CommAdd64(base+8*k, 1)
		}
	})
	var total uint64
	for k := uint64(0); k < nctr; k++ {
		total += m.ReadWord64(base + 8*k)
	}
	if total != perCore*cores {
		t.Errorf("total=%d, want %d", total, perCore*cores)
	}
	if m.Stats().PartialReductions == 0 {
		t.Error("expected eviction-driven partial reductions")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrossChip: cores on different chips contend on one line.
func TestCrossChip(t *testing.T) {
	for _, p := range []Protocol{MESI, MEUSI} {
		cfg := smallCfg(32, p) // 2 chips
		m := New(cfg)
		ctr := m.Alloc(64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.CommAdd64(ctr, 1)
			}
		})
		if got := m.ReadWord64(ctr); got != 3200 {
			t.Errorf("%v: got %d, want 3200", p, got)
		}
		st := m.Stats()
		if st.OffChipMsgs == 0 {
			t.Errorf("%v: expected off-chip traffic", p)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

// TestCoupBeatsAtomicsOnContention is the paper's headline shape: an
// update-heavy contended counter is much cheaper under MEUSI than MESI.
func TestCoupBeatsAtomicsOnContention(t *testing.T) {
	run := func(p Protocol) uint64 {
		m := New(smallCfg(32, p))
		ctr := m.Alloc(64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 300; i++ {
				c.CommAdd64(ctr, 1)
			}
		})
		return m.Stats().Cycles
	}
	mesi, meusi := run(MESI), run(MEUSI)
	if meusi*2 >= mesi {
		t.Errorf("MEUSI (%d cycles) should be >2x faster than MESI (%d) on a contended counter", meusi, mesi)
	}
}

// TestCoupTrafficReduction: the same workload must also produce far less
// off-chip traffic under MEUSI (paper: up to 20x less).
func TestCoupTrafficReduction(t *testing.T) {
	run := func(p Protocol) uint64 {
		m := New(smallCfg(32, p))
		ctr := m.Alloc(64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 300; i++ {
				c.CommAdd64(ctr, 1)
			}
		})
		return m.Stats().OffChipBytes
	}
	mesi, meusi := run(MESI), run(MEUSI)
	if meusi*4 >= mesi {
		t.Errorf("MEUSI off-chip bytes (%d) should be <1/4 of MESI (%d)", meusi, mesi)
	}
}

// TestDeterminism: identical configuration and seed must give identical
// cycle counts and stats.
func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := New(smallCfg(16, MEUSI))
		base := m.Alloc(64*64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 500; i++ {
				c.CommAdd64(base+64*(c.Rand()%64), 1)
				if i%10 == 0 {
					c.Load64(base + 64*(c.Rand()%64))
				}
			}
		})
		return m.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic stats:\n%+v\n%+v", a, b)
	}
}

// TestSeedChangesOutcome: different seeds must actually perturb timing
// (the Alameldeen-Wood mechanism needs real variation).
func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := smallCfg(8, MESI)
		cfg.Seed = seed
		m := New(cfg)
		ctr := m.Alloc(64, 64)
		m.Run(func(c *Ctx) {
			for i := 0; i < 200; i++ {
				c.CommAdd64(ctr, 1)
			}
		})
		return m.Stats().Cycles
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical cycle counts (jitter not applied)")
	}
}

func TestBarrierAligns(t *testing.T) {
	m := New(smallCfg(4, MESI))
	after := make([]uint64, 4)
	m.Run(func(c *Ctx) {
		c.Work(uint64(c.Tid()) * 1000) // deliberately skewed
		c.Barrier()
		after[c.Tid()] = c.Now()
	})
	for i := 1; i < 4; i++ {
		if after[i] != after[0] {
			t.Errorf("barrier exit times differ: %v", after)
		}
	}
	if after[0] < 3000 {
		t.Errorf("barrier exited before slowest core arrived: %d", after[0])
	}
}

func TestSpinLock(t *testing.T) {
	const cores = 8
	m := New(smallCfg(cores, MESI))
	lock := m.Alloc(64, 64)
	val := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for i := 0; i < 20; i++ {
			c.SpinLock(lock)
			v := c.Load64(val) // non-atomic RMW under the lock
			c.Work(5)
			c.Store64(val, v+1)
			c.SpinUnlock(lock)
		}
	})
	if got := m.ReadWord64(val); got != 20*cores {
		t.Errorf("lock-protected counter: got %d, want %d", got, 20*cores)
	}
}

func TestAtomicsSemantics(t *testing.T) {
	m := New(smallCfg(2, MESI))
	a := m.Alloc(64, 64)
	olds := make([]uint64, 2)
	m.Run(func(c *Ctx) {
		olds[c.Tid()] = c.AtomicAdd64(a, 1)
	})
	// Exactly one core saw 0, the other saw 1.
	if !(olds[0]+olds[1] == 1) {
		t.Errorf("fetch-and-add olds: %v", olds)
	}
	if m.ReadWord64(a) != 2 {
		t.Errorf("final: %d", m.ReadWord64(a))
	}
}

func TestCASFailure(t *testing.T) {
	m := New(smallCfg(1, MESI))
	a := m.Alloc(64, 64)
	m.WriteWord64(a, 5)
	var ok1, ok2 bool
	m.Run(func(c *Ctx) {
		ok1 = c.CAS64(a, 4, 9) // must fail
		ok2 = c.CAS64(a, 5, 9) // must succeed
	})
	if ok1 || !ok2 || m.ReadWord64(a) != 9 {
		t.Errorf("CAS semantics: ok1=%v ok2=%v val=%d", ok1, ok2, m.ReadWord64(a))
	}
}

// TestAMATAccounting: breakdown totals must equal the per-access sums.
func TestAMATAccounting(t *testing.T) {
	m := New(smallCfg(8, MEUSI))
	base := m.Alloc(128*64, 64)
	m.Run(func(c *Ctx) {
		for i := 0; i < 300; i++ {
			c.CommAdd64(base+64*(c.Rand()%128), 1)
			c.Load64(base + 64*(c.Rand()%128))
		}
	})
	st := m.Stats()
	var sum uint64
	for _, v := range []uint64{st.Breakdown.L1, st.Breakdown.L2, st.Breakdown.L3,
		st.Breakdown.Net, st.Breakdown.L4Inval, st.Breakdown.L4, st.Breakdown.Mem} {
		sum += v
	}
	if sum != st.Breakdown.Total() {
		t.Errorf("breakdown total %d != sum %d", st.Breakdown.Total(), sum)
	}
	if st.AMAT() <= 0 {
		t.Error("AMAT must be positive")
	}
	lv := st.L1Hits + st.L2Hits
	if lv > st.Accesses {
		t.Errorf("hit counts exceed accesses: %d > %d", lv, st.Accesses)
	}
}

// TestRandomSoupInvariants: a property test — random mixes of commutative
// adds and loads over a small address pool keep every structural invariant
// and the exact total, under both protocols and across seeds.
func TestRandomSoupInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		for _, p := range []Protocol{MESI, MEUSI} {
			cfg := smallCfg(8, p)
			cfg.Seed = seed%1000 + 1
			m := New(cfg)
			const nAddr = 32
			base := m.Alloc(nAddr*8, 64) // several counters per line
			var issued [8]uint64
			m.Run(func(c *Ctx) {
				n := 100 + c.Rand()%100
				for i := uint64(0); i < n; i++ {
					a := base + 8*c.RandN(nAddr)
					switch c.Rand() % 4 {
					case 0, 1:
						c.CommAdd64(a, 1)
						issued[c.Tid()]++
					case 2:
						c.Load64(a)
					case 3:
						c.CommOr64(a, 0) // or-identity: value-neutral, type-churning
					}
				}
			})
			if err := m.CheckInvariants(); err != nil {
				t.Logf("%v seed %d: %v", p, seed, err)
				return false
			}
			var want, got uint64
			for _, n := range issued {
				want += n
			}
			for k := uint64(0); k < nAddr; k++ {
				got += m.ReadWord64(base + 8*k)
			}
			if got != want {
				t.Logf("%v seed %d: total %d want %d", p, seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesCorruption corrupts one coherence structure
// at a time after a run that passed — the global directory, a chip
// directory, a private cache — on one chip and on two, and checks that
// CheckInvariants reports the corrupted line.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name, want string
		// corrupt breaks one entry of h and returns its line.
		corrupt func(h *hierarchy) (uint64, bool)
	}{
		{"L4 owner with sharers", "global exclusivity", func(h *hierarchy) (uint64, bool) {
			return corruptFirst(h.l4.arr, func(d *dirLine) bool { return d.owner >= 0 },
				func(_ uint64, d *dirLine) { d.sharers |= 1 })
		}},
		{"L3 entry without L4 entry", "L4 has no entry", func(h *hierarchy) (uint64, bool) {
			return corruptFirst(h.chips[0].arr, func(*dirLine) bool { return true },
				func(line uint64, _ *dirLine) { h.l4.arr.invalidate(line) })
		}},
		{"L2 S line without L3 sharer bit", "in S but dir sharers", func(h *hierarchy) (uint64, bool) {
			return corruptFirst(h.priv[0].l2, func(p *privLine) bool { return p.state == stateS },
				func(line uint64, _ *privLine) { h.chips[0].arr.peek(line).sharers &^= bit(0) })
		}},
	}
	for _, cores := range []int{4, 32} {
		for _, p := range []Protocol{MESI, MEUSI} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%dcores/%v/%s", cores, p, tc.name), func(t *testing.T) {
					m := New(smallCfg(cores, p))
					shared := m.AllocLines(8)
					private := m.AllocLines(uint64(2 * cores))
					m.Run(func(c *Ctx) {
						for i := uint64(0); i < 8; i++ {
							c.Load64(shared + 64*i)
						}
						for i := uint64(0); i < 2; i++ {
							c.Store64(private+64*(2*uint64(c.Tid())+i), 1)
						}
					})
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("before corruption: %v", err)
					}
					line, ok := tc.corrupt(m.hier)
					if !ok {
						t.Fatal("the run left no entry to corrupt")
					}
					err := m.CheckInvariants()
					if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %#x ", line)) || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("after corrupting line %#x: err = %v, want it named with %q", line, err, tc.want)
					}
				})
			}
		}
	}
}

// corruptFirst applies corrupt to the first entry of a, in forEach
// order, that match accepts, and returns that entry's line.
func corruptFirst[P any](a *array[P], match func(*P) bool, corrupt func(line uint64, p *P)) (uint64, bool) {
	var line uint64
	var found *P
	a.forEach(func(tag uint64, p *P) {
		if found == nil && match(p) {
			line, found = tag, p
		}
	})
	if found == nil {
		return 0, false
	}
	corrupt(line, found)
	return line, true
}

// TestULocalHitRate: after warm-up, repeated commutative updates from many
// cores to one line must be satisfied locally under MEUSI.
func TestULocalHitRate(t *testing.T) {
	m := New(smallCfg(16, MEUSI))
	ctr := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for i := 0; i < 500; i++ {
			c.CommAdd64(ctr, 1)
		}
	})
	st := m.Stats()
	if st.ULocalHits < st.CommUpdates*9/10 {
		t.Errorf("local hits %d of %d updates — COUP's fast path is broken", st.ULocalHits, st.CommUpdates)
	}
}

// TestRunTwicePanics documents the single-run contract.
func TestRunTwicePanics(t *testing.T) {
	m := New(smallCfg(1, MESI))
	m.Run(func(c *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Error("second Run must panic")
		}
	}()
	m.Run(func(c *Ctx) {})
}

func TestAllocAlignment(t *testing.T) {
	m := New(DefaultConfig(1, MESI))
	a := m.Alloc(10, 64)
	b := m.Alloc(10, 64)
	if a%64 != 0 || b%64 != 0 || b <= a {
		t.Errorf("alloc: a=%#x b=%#x", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad alignment must panic")
		}
	}()
	m.Alloc(8, 3)
}

func TestArrayLRU(t *testing.T) {
	a := newArray[int](4*64, 2) // 4 lines, 2 ways, 2 sets
	// Fill one set (lines 0 and 2 map to set 0 with 2 sets).
	s0, _, _, ev, _ := a.insert(0)
	if ev {
		t.Fatal("no eviction expected")
	}
	*s0 = 10
	s2, _, _, _, _ := a.insert(2)
	*s2 = 20
	a.lookup(0) // touch 0: now 2 is LRU
	_, vt, vp, ev, _ := a.insert(4)
	if !ev || vt != 2 || vp != 20 {
		t.Errorf("eviction: ev=%v tag=%d p=%d, want line 2", ev, vt, vp)
	}
	if a.peek(0) == nil || a.peek(4) == nil || a.peek(2) != nil {
		t.Error("array contents wrong after eviction")
	}
	a.invalidate(0)
	if a.peek(0) != nil {
		t.Error("invalidate failed")
	}
	if a.contains(4) != true {
		t.Error("contains failed")
	}
}

func TestRMOUpdatesCorrectAndRemote(t *testing.T) {
	m := New(smallCfg(16, RMO))
	ctr := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.CommAdd64(ctr, 2)
		}
	})
	if got := m.ReadWord64(ctr); got != 3200 {
		t.Errorf("RMO total: %d, want 3200", got)
	}
	st := m.Stats()
	// Remote updates never hit locally.
	if st.ULocalHits != 0 {
		t.Errorf("RMO must not have local update hits, got %d", st.ULocalHits)
	}
	if st.OffChipMsgs == 0 {
		t.Error("RMO updates must cross the network")
	}
}

func TestWorkAdvancesTime(t *testing.T) {
	m := New(DefaultConfig(1, MESI))
	var before, after uint64
	m.Run(func(c *Ctx) {
		before = c.Now()
		c.Work(1234)
		after = c.Now()
	})
	if after-before != 1234 {
		t.Errorf("Work: advanced %d, want 1234", after-before)
	}
}

// TestRNGIntnRangeAndUniformity covers the Lemire multiply-shift reduction
// in rng.intn: values stay in [0, n) for awkward (non-power-of-two) n, and
// buckets come out close to uniform — the property the old next()%n
// reduction violated by favoring small residues.
func TestRNGIntnRangeAndUniformity(t *testing.T) {
	r := newRNG(42)
	if r.intn(0) != 0 {
		t.Error("intn(0) must be 0")
	}
	if r.intn(1) != 0 {
		t.Error("intn(1) must be 0")
	}
	for _, n := range []uint64{2, 3, 5, 7, 100, 1000, 1 << 16, (1 << 40) + 17} {
		for i := 0; i < 200; i++ {
			if v := r.intn(n); v >= n {
				t.Fatalf("intn(%d) = %d out of range", n, v)
			}
		}
	}
	// Coarse uniformity over a prime bucket count: each bucket within 5%
	// of the expected draws (splitmix64 is far better than this bound).
	const n, draws = 7, 70_000
	var counts [n]uint64
	for i := 0; i < draws; i++ {
		counts[r.intn(n)]++
	}
	const want = draws / n
	for b, c := range counts {
		if c < want*95/100 || c > want*105/100 {
			t.Errorf("bucket %d: %d draws, want %d ±5%%", b, c, want)
		}
	}
}

// TestRNGIntnDeterministic pins that intn consumes exactly one next() per
// call, so the per-core random streams stay reproducible across runs.
func TestRNGIntnDeterministic(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if av, bv := a.intn(97), b.intn(97); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
	a.next() // desync by one draw
	var diff bool
	for i := 0; i < 10; i++ {
		if a.intn(97) != b.intn(97) {
			diff = true
		}
	}
	if !diff {
		t.Error("streams identical after desync; intn is not consuming the generator")
	}
}
