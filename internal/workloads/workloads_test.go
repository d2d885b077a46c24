package workloads

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

func testCfg(cores int, p sim.Protocol) sim.Config {
	cfg := sim.DefaultConfig(cores, p)
	cfg.L2Size = 16 << 10
	cfg.L3Size = 512 << 10
	cfg.L4Size = 2 << 20
	return cfg
}

func runBoth(t *testing.T, mk func() Workload, cores int) (mesi, meusi sim.Stats) {
	t.Helper()
	var err error
	mesi, err = RunIn(nil, mk(), testCfg(cores, sim.MESI))
	if err != nil {
		t.Fatalf("MESI: %v", err)
	}
	meusi, err = RunIn(nil, mk(), testCfg(cores, sim.MEUSI))
	if err != nil {
		t.Fatalf("MEUSI: %v", err)
	}
	return mesi, meusi
}

func TestChunkPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, th := range []int{1, 3, 16} {
			covered := 0
			prevHi := 0
			for tid := 0; tid < th; tid++ {
				lo, hi := chunk(n, tid, th)
				if lo != prevHi {
					t.Fatalf("n=%d th=%d tid=%d: gap (lo=%d prevHi=%d)", n, th, tid, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d th=%d: covered %d", n, th, covered)
			}
		}
	}
}

func TestHistSharedBothProtocols(t *testing.T) {
	mesi, meusi := runBoth(t, func() Workload {
		return NewHist(20000, 256, HistShared, 7)
	}, 16)
	if mesi.CommUpdates == 0 && mesi.Atomics == 0 {
		t.Error("MESI hist issued no updates")
	}
	if meusi.ULocalHits == 0 {
		t.Error("MEUSI hist never hit the U fast path")
	}
	// COUP should not lose to atomics on an update-heavy histogram.
	if meusi.Cycles > mesi.Cycles {
		t.Errorf("MEUSI (%d cycles) slower than MESI (%d) on shared hist", meusi.Cycles, mesi.Cycles)
	}
}

func TestHistPrivCore(t *testing.T) {
	st, err := RunIn(nil, NewHist(10000, 128, HistPrivCore, 7), testCfg(8, sim.MESI))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Error("no cycles")
	}
}

func TestHistPrivSocket(t *testing.T) {
	// 32 cores = 2 chips: socket-level copies really are shared per chip.
	st, err := RunIn(nil, NewHist(20000, 128, HistPrivSocket, 7), testCfg(32, sim.MESI))
	if err != nil {
		t.Fatal(err)
	}
	if st.Atomics == 0 {
		t.Error("socket-level privatization must use atomics")
	}
}

func TestHistManyBinsFavorsShared(t *testing.T) {
	// The Fig 2 crossover: with many bins (few updates per bin), core-level
	// privatization pays reduction costs that the shared version avoids.
	bins := 8192
	pix := 16000
	shared, err := RunIn(nil, NewHist(pix, bins, HistShared, 3), testCfg(16, sim.MEUSI))
	if err != nil {
		t.Fatal(err)
	}
	priv, err := RunIn(nil, NewHist(pix, bins, HistPrivCore, 3), testCfg(16, sim.MEUSI))
	if err != nil {
		t.Fatal(err)
	}
	if shared.Cycles >= priv.Cycles {
		t.Errorf("COUP shared hist (%d cycles) should beat core privatization (%d) at %d bins",
			shared.Cycles, priv.Cycles, bins)
	}
}

func TestSpMV(t *testing.T) {
	mesi, meusi := runBoth(t, func() Workload {
		return NewSpMV(1500, 16, 5)
	}, 16)
	if mesi.Cycles == 0 || meusi.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if meusi.CommUpdates == 0 {
		t.Error("spmv must issue commutative FP adds under MEUSI")
	}
	// The MESI baseline expresses FP adds as load+CAS loops.
	if mesi.Atomics == 0 {
		t.Error("spmv under MESI must use CAS")
	}
}

func TestPgRank(t *testing.T) {
	mesi, meusi := runBoth(t, func() Workload {
		return NewPgRank(10, 8, 2, 9)
	}, 16)
	if meusi.Cycles > mesi.Cycles {
		t.Errorf("MEUSI pgrank (%d) slower than MESI (%d)", meusi.Cycles, mesi.Cycles)
	}
}

func TestBFS(t *testing.T) {
	mesi, meusi := runBoth(t, func() Workload {
		return NewBFS(11, 8, 13)
	}, 16)
	_ = mesi
	if meusi.TypeSwitches == 0 {
		t.Error("bfs bitmap must bounce between read-only and update-only modes")
	}
}

func TestFluid(t *testing.T) {
	mesi, meusi := runBoth(t, func() Workload {
		return NewFluid(64, 64, 2, 17)
	}, 8)
	// Shared cells are rare: the two protocols should be close (Fig 10e).
	ratio := float64(mesi.Cycles) / float64(meusi.Cycles)
	if ratio < 0.8 || ratio > 2.0 {
		t.Errorf("fluid MESI/MEUSI ratio %.2f implausible (expected near 1)", ratio)
	}
}

func TestRefCountPlainLow(t *testing.T) {
	// Paper setup ratio: 1024 counters (Fig 13a). With far fewer counters
	// the read-per-decrement contention erodes COUP's edge, so keep the
	// paper's counter pool.
	mesi, meusi := runBoth(t, func() Workload {
		return NewRefCount(1024, 400, false, RefPlain, 21)
	}, 32)
	if meusi.Cycles > mesi.Cycles {
		t.Errorf("COUP refcount (%d) slower than XADD (%d) at 32 cores", meusi.Cycles, mesi.Cycles)
	}
}

func TestRefCountPlainHigh(t *testing.T) {
	_, err := RunIn(nil, NewRefCount(64, 400, true, RefPlain, 23), testCfg(16, sim.MEUSI))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRefCountSNZI(t *testing.T) {
	st, err := RunIn(nil, NewRefCount(32, 200, true, RefSNZI, 25), testCfg(16, sim.MESI))
	if err != nil {
		t.Fatal(err)
	}
	if st.Atomics == 0 {
		t.Error("SNZI must use CAS")
	}
}

func TestRefCountDelayedCoup(t *testing.T) {
	st, err := RunIn(nil, NewRefCountDelayed(512, 3, 100, DelayedCoup, 27), testCfg(16, sim.MEUSI))
	if err != nil {
		t.Fatal(err)
	}
	if st.CommUpdates == 0 {
		t.Error("delayed COUP must use commutative updates")
	}
}

func TestRefCountDelayedRefcache(t *testing.T) {
	st, err := RunIn(nil, NewRefCountDelayed(512, 3, 100, DelayedRefcache, 27), testCfg(16, sim.MESI))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestDelayedCoupBeatsRefcache reproduces the Fig 13c shape at one point.
func TestDelayedCoupBeatsRefcache(t *testing.T) {
	coup, err := RunIn(nil, NewRefCountDelayed(1024, 2, 200, DelayedCoup, 3), testCfg(16, sim.MEUSI))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RunIn(nil, NewRefCountDelayed(1024, 2, 200, DelayedRefcache, 3), testCfg(16, sim.MESI))
	if err != nil {
		t.Fatal(err)
	}
	if coup.Cycles >= rc.Cycles {
		t.Errorf("COUP delayed refcount (%d) should beat Refcache (%d)", coup.Cycles, rc.Cycles)
	}
}

// TestWorkloadsSingleCore: every workload must be valid on one core too
// (the Fig 10 speedup baselines).
func TestWorkloadsSingleCore(t *testing.T) {
	wls := []Workload{
		NewHist(5000, 128, HistShared, 1),
		NewSpMV(600, 12, 1),
		NewPgRank(9, 6, 1, 1),
		NewBFS(9, 6, 1),
		NewFluid(32, 32, 1, 1),
		NewRefCount(32, 100, false, RefPlain, 1),
		NewRefCountDelayed(256, 2, 50, DelayedCoup, 1),
	}
	for _, w := range wls {
		if _, err := RunIn(nil, w, testCfg(1, sim.MEUSI)); err != nil {
			t.Errorf("%s on 1 core: %v", w.Name(), err)
		}
	}
}

// TestWorkloadsCrossChip: all workloads across 2 chips under MEUSI.
func TestWorkloadsCrossChip(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-chip sweep is slow")
	}
	wls := []Workload{
		NewHist(8000, 128, HistShared, 2),
		NewSpMV(800, 12, 2),
		NewPgRank(9, 6, 1, 2),
		NewBFS(10, 6, 2),
		NewFluid(48, 48, 1, 2),
		NewRefCount(64, 150, true, RefPlain, 2),
	}
	for _, w := range wls {
		if _, err := RunIn(nil, w, testCfg(32, sim.MEUSI)); err != nil {
			t.Errorf("%s on 32 cores: %v", w.Name(), err)
		}
	}
}

// frozenWriter freezes the histogram's input, then its kernel writes the
// input instead of the bins, or panics with a plain value when other is
// set.
type frozenWriter struct {
	*Hist
	other bool
}

func (w frozenWriter) Kernel(c *sim.Ctx) {
	if c.Tid() == 2 {
		if w.other {
			panic("not a frozen write")
		}
		c.CommAdd64(w.inputAddr+64, 1)
	}
	w.Hist.Kernel(c)
}

// TestRunInFrozenWrite: RunIn returns a kernel's frozen write as a wrapped
// *sim.FrozenWriteError and keeps the failed machine out of its arena (the
// next machine of its geometry is built cold), while any other panic
// propagates.
func TestRunInFrozenWrite(t *testing.T) {
	a := sim.NewArena()
	w := frozenWriter{Hist: NewHist(4000, 64, HistShared, 1)}
	_, err := RunIn(a, w, testCfg(4, sim.MEUSI))
	var fw *sim.FrozenWriteError
	if !errors.As(err, &fw) || fw.Addr != w.inputAddr+64 || fw.Core != 2 {
		t.Fatalf("err = %v, want a *sim.FrozenWriteError by core 2", err)
	}
	sim.NewIn(a, testCfg(4, sim.MEUSI))
	if warm, cold := a.PoolStats(); warm != 0 || cold != 2 {
		t.Errorf("after a frozen write the next machine came %d warm, %d cold of 2 builds; want 0 warm", warm, cold)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		RunIn(a, frozenWriter{Hist: NewHist(4000, 64, HistShared, 1), other: true}, testCfg(4, sim.MEUSI))
		return nil
	}()
	if got != "not a frozen write" {
		t.Errorf("recovered %v, want the kernel's own panic", got)
	}
}

// TestMustRegisterRejectsEmptyAndDuplicate: a built-in registration with
// an empty name, or a name already taken in another case, panics and
// leaves the registry unchanged.
func TestMustRegisterRejectsEmptyAndDuplicate(t *testing.T) {
	before := strings.Join(Names(), ",")
	f := func(Params) (Workload, error) { return nil, nil }
	for _, name := range []string{"", "HIST"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mustRegister(%q) did not panic", name)
				}
			}()
			mustRegister(name, "dup", f)
		}()
	}
	if after := strings.Join(Names(), ","); after != before {
		t.Errorf("Names() = %s after rejected registrations, want %s", after, before)
	}
}
