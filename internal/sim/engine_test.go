package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestSteadyStateZeroAllocs pins the engine's allocation-free hot path: in
// the steady state of a contended-counter run (every structure warm), a
// block of simulated operations must not allocate. Measured inside the
// kernel via the monotonic Mallocs counter, so setup and drain are
// excluded.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const cores = 16
	m := New(benchCfg(cores, MEUSI))
	ctr := m.Alloc(64, 64)
	var delta uint64
	m.Run(func(c *Ctx) {
		for i := 0; i < 2000; i++ { // warm caches, tables, pools
			c.CommAdd64(ctr, 1)
		}
		if c.Tid() == 0 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20000; i++ {
				c.CommAdd64(ctr, 1)
			}
			runtime.ReadMemStats(&after)
			delta = after.Mallocs - before.Mallocs
		} else {
			for i := 0; i < 20000; i++ {
				c.CommAdd64(ctr, 1)
			}
		}
	})
	// Tid 0's measured block interleaves with every other core's ops, so
	// this covers the full scheduler + hierarchy fast path. ReadMemStats
	// itself may account a handful of runtime-internal objects.
	if delta > 8 {
		t.Errorf("steady state allocated %d objects across 20000 ops, want ~0", delta)
	}
}

// TestBusyTableBasics covers the open-addressed line-serialization table:
// lookups of absent lines, overwrite, and collision probing.
func TestBusyTableBasics(t *testing.T) {
	bt := newBusyTable()
	if got := bt.get(42); got != 0 {
		t.Errorf("absent line: got %d, want 0", got)
	}
	bt.put(42, 100, 0)
	bt.put(43, 200, 0)
	bt.put(42, 150, 0) // overwrite
	if got := bt.get(42); got != 150 {
		t.Errorf("line 42: got %d, want 150", got)
	}
	if got := bt.get(43); got != 200 {
		t.Errorf("line 43: got %d, want 200", got)
	}
}

// TestBusyTableBounded is the regression test for the unbounded-growth
// leak: streaming millions of distinct, short-lived lines through a bank
// must not grow the table, because expired entries are reclaimed in place
// once the watermark passes them.
func TestBusyTableBounded(t *testing.T) {
	bt := newBusyTable()
	for i := uint64(0); i < 1_000_000; i++ {
		bt.put(i, i+10, i) // entry expires 10 cycles later
	}
	if len(bt.keys) > 1024 {
		t.Errorf("table grew to %d slots on churn-only traffic (leak)", len(bt.keys))
	}
	// Live (unexpired) entries must survive purges triggered by churn.
	bt2 := newBusyTable()
	bt2.put(7, 1<<40, 0)
	for i := uint64(100); i < 10_000; i++ {
		bt2.put(i, i+1, i)
	}
	if got := bt2.get(7); got != 1<<40 {
		t.Errorf("live entry lost during purges: got %d", got)
	}
}

// TestBusyTableGrow forces genuine growth (many concurrently live lines)
// and checks every entry survives the rehash.
func TestBusyTableGrow(t *testing.T) {
	bt := newBusyTable()
	const n = 500
	for i := uint64(0); i < n; i++ {
		bt.put(i, 1<<30+i, 0) // all live far in the future
	}
	for i := uint64(0); i < n; i++ {
		if got := bt.get(i); got != 1<<30+i {
			t.Fatalf("line %d: got %d, want %d", i, got, 1<<30+i)
		}
	}
}

// TestBackingPaged exercises the paged memory image across page
// boundaries: untouched memory reads zero, and writes land on the right
// lines including the sub-word halves.
func TestBackingPaged(t *testing.T) {
	b := newBacking()
	if b.read64(1<<30) != 0 {
		t.Error("untouched memory must read 0")
	}
	// Straddle a page boundary (pages are pageLineCount lines).
	boundary := uint64(pageLineCount) * 64
	b.write64(boundary-8, 0xAAAA)
	b.write64(boundary, 0xBBBB)
	if b.read64(boundary-8) != 0xAAAA || b.read64(boundary) != 0xBBBB {
		t.Error("writes across a page boundary corrupted")
	}
	b.write32(boundary+4, 0x1234)
	if b.read32(boundary+4) != 0x1234 || b.read32(boundary) != 0xBBBB&0xFFFFFFFF {
		t.Error("32-bit halves wrong across pages")
	}
}

// TestArrayLazyEvictTagRoundTrip pins the 31-bit hardware-style tag
// reconstruction on a lazily paged geometry: evicting from a far set must
// return the victim's full line address.
func TestArrayLazyEvictTagRoundTrip(t *testing.T) {
	a := newArray[int](32<<20, 16) // Table-1 L3 geometry: lazily paged
	sets := a.setMask + 1
	base := uint64(0x3F00_0000) >> 6  // a large line address
	base -= base & a.setMask          // align to set 0
	for k := uint64(0); k < 17; k++ { // 17 lines, same set, 16 ways
		p, vtag, vp, evicted, _ := a.insert(base + k*sets)
		*p = int(k)
		if k < 16 && evicted {
			t.Fatalf("unexpected eviction at insert %d", k)
		}
		if k == 16 {
			if !evicted {
				t.Fatal("17th insert must evict")
			}
			if vtag != base {
				t.Errorf("victim tag %#x, want %#x (tag round-trip broken)", vtag, base)
			}
			if vp != 0 {
				t.Errorf("victim payload %d, want 0", vp)
			}
		}
	}
	if a.peek(base+16*sets) == nil {
		t.Error("newest line missing after eviction")
	}
}

// TestManyBarriers stresses the scheduler's park/release path (the loser
// tree is rebuilt on every release) with skewed per-core work between
// barriers; the shared counter must stay exact.
func TestManyBarriers(t *testing.T) {
	const cores = 8
	m := New(smallCfg(cores, MEUSI))
	ctr := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for round := 0; round < 10; round++ {
			c.Work(uint64(c.Tid()*37+round) * 13)
			for i := 0; i < 25; i++ {
				c.CommAdd64(ctr, 1)
			}
			c.Barrier()
		}
	})
	if got := m.ReadWord64(ctr); got != 10*25*cores {
		t.Errorf("counter=%d, want %d", got, 10*25*cores)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// updateWide regenerates testdata/wide_stats.json from the current engine.
// Run `go test ./internal/sim -run TestSchedulerEquivalence -update` only when
// a change is *supposed* to alter simulated timing; scheduler changes must
// leave the file untouched.
var updateWide = flag.Bool("update", false, "rewrite testdata/wide_stats.json from the current engine")

const widePath = "testdata/wide_stats.json"

// wideKernel mixes skewed Work, commutative updates, plain loads/stores and
// barriers so the run-ahead horizon, park/release rebuilds and finish
// re-keys all get exercised. Every core adds 4*30 to the shared counter.
func wideKernel(shared uint64) func(*Ctx) {
	return func(c *Ctx) {
		for round := 0; round < 4; round++ {
			c.Work(uint64(c.Tid()*31+round) * 7)
			for i := 0; i < 30; i++ {
				c.CommAdd64(shared, 1)
			}
			if c.Tid()%3 == 0 {
				c.Load64(shared + 64)
				c.Store64(shared+64, uint64(c.Tid()))
			}
			c.Barrier()
		}
	}
}

// TestSchedulerEquivalence pins the scheduler on wide machines: at 48, 272 and
// 1024 cores (16 per chip) and at 4096 cores (64 chips of 64, the largest
// machine Validate accepts), the full Stats must be byte-identical to the
// recorded values. They were recorded with three different scheduler
// structures that agreed byte for byte: any exact min-extraction over
// (time, id) keys reproduces them, and the counter total and coherence
// invariants are checked on every run.
func TestSchedulerEquivalence(t *testing.T) {
	cfgs := []Config{smallCfg(48, MEUSI), smallCfg(272, MEUSI), smallCfg(1024, MEUSI), smallCfg(4096, MEUSI)}
	cfgs[3].CoresPerChip = 64
	got := map[string]Stats{}
	for _, cfg := range cfgs {
		key := fmt.Sprintf("%dc/%dpc", cfg.Cores, cfg.CoresPerChip)
		m := New(cfg)
		shared := m.Alloc(128, 64)
		st := m.Run(wideKernel(shared))
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if v, want := m.ReadWord64(shared), uint64(4*30*cfg.Cores); v != want {
			t.Errorf("%s: counter=%d, want %d", key, v, want)
		}
		got[key] = st
	}

	if *updateWide {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(widePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(widePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), widePath)
		return
	}

	data, err := os.ReadFile(widePath)
	if err != nil {
		t.Fatalf("missing %s (generate with -update): %v", widePath, err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", widePath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, run produced %d", widePath, len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, widePath)
		} else if g != w {
			t.Errorf("%s: stats diverged from the recorded run\n got: %+v\nwant: %+v", key, g, w)
		}
	}
}

// TestTreeSchedulerAtBoundary runs a machine that fills its loser tree
// exactly (256 cores: a power of two, so no pad leaves) and checks the
// exact expected total.
func TestTreeSchedulerAtBoundary(t *testing.T) {
	cfg := smallCfg(256, MEUSI)
	m := New(cfg)
	ctr := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.CommAdd64(ctr, 1)
		}
	})
	if got := m.ReadWord64(ctr); got != 10*256 {
		t.Errorf("counter=%d, want %d", got, 10*256)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
