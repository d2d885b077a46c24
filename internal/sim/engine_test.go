package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
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
// reconstruction on a sparse geometry: evicting from a far set must return
// the victim's full line address.
func TestArrayLazyEvictTagRoundTrip(t *testing.T) {
	a := newArray[int](32<<20, 16) // Table-1 L3 geometry: sparse
	sets := a.setMask + 1
	base := uint64(0x3F00_0000) >> 6  // a large line address
	base -= base & a.setMask          // align to set 0
	for k := uint64(0); k < 17; k++ { // 17 lines, same set, 16 ways
		p, vtag, vp, evicted := a.insert(base + k*sets)
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

// update regenerates the Stats goldens under testdata (wide_stats.json,
// direvict_stats.json) from the current engine. Run `go test ./internal/sim
// -run 'TestSchedulerEquivalence|TestDirEvictionsGolden' -update` only when
// a change is *supposed* to alter simulated timing; scheduler and cache-array
// changes must leave the files untouched.
var update = flag.Bool("update", false, "rewrite the testdata/*_stats.json goldens from the current engine")

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
	checkStatsGolden(t, widePath, got)
}

// checkStatsGolden compares got with the Stats recorded in the golden file
// at path, or rewrites the file under -update.
func checkStatsGolden(t *testing.T, path string, got map[string]Stats) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (generate with -update): %v", path, err)
	}
	var want map[string]Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, run produced %d", path, len(want), len(got))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: not in %s", key, path)
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

// Soup memory: soupWords words of shared lines the soup writes, and
// soupInput words of input it only reads.
const soupWords, soupInput = 48, 32

// soupKernel issues a random mix of every Ctx operation over a few shared
// lines: loads, stores and atomics of both widths, CAS, every commutative
// update, Work, Now, SpinLock, loads of the read-only input at in (alone,
// and in bursts of posts longer than a core's queue) whose values it
// stores, and bursts of result-less ops longer than the queue, with every
// core meeting at a barrier per round. Each core records its Now readings
// in nows.
func soupKernel(base, lock, in uint64, nows [][]uint64) func(*Ctx) {
	return func(c *Ctx) {
		tid := c.Tid()
		for round := 0; round < 3; round++ {
			n := 40 + c.RandN(60)
			for i := uint64(0); i < n; i++ {
				a := base + 8*c.RandN(soupWords)
				f := in + 8*c.RandN(soupInput)
				switch c.RandN(22) {
				case 0:
					c.Load64(a)
				case 1:
					c.Load32(a + 4*c.RandN(2))
				case 2:
					c.Store64(a, c.Rand())
				case 3:
					c.Store32(a+4*c.RandN(2), uint32(c.Rand()))
				case 4:
					c.StoreF64(a, float64(c.RandN(100)))
				case 5:
					c.AtomicAdd64(a, 3)
				case 6:
					c.AtomicAdd32(a+4*c.RandN(2), 5)
				case 7:
					c.AtomicOr64(a, 1<<c.RandN(64))
				case 8:
					c.AtomicXchg64(a, c.Rand())
				case 9:
					c.CAS64(a, c.Load64(a), c.Rand())
				case 10:
					c.CAS32(a, c.Load32(a), uint32(c.Rand()))
				case 11:
					c.CommAdd64(a, c.RandN(9))
				case 12:
					c.CommAdd32(a+4*c.RandN(2), uint32(c.RandN(9)))
				case 13:
					switch c.RandN(3) {
					case 0:
						c.CommOr64(a, 1<<c.RandN(64))
					case 1:
						c.CommAnd64(a, ^(uint64(1) << c.RandN(64)))
					default:
						c.CommXor64(a, c.Rand())
					}
				case 14:
					if c.RandN(2) == 0 {
						c.CommAddF64(a, 1.5)
					} else {
						c.CommAddF32(a+4*c.RandN(2), 0.25)
					}
				case 15:
					c.Work(c.RandN(40))
				case 16:
					nows[tid] = append(nows[tid], c.Now())
				case 17:
					// A burst of result-less ops: more than one queue's
					// worth, with Work between some of them.
					for j := uint64(0); j < postCap+1+c.RandN(2*postCap); j++ {
						b := base + 8*c.RandN(soupWords)
						if c.RandN(3) == 0 {
							c.Store64(b, j)
						} else {
							c.CommAdd64(b, 1)
						}
						if c.RandN(4) == 0 {
							c.Work(c.RandN(20))
						}
					}
					nows[tid] = append(nows[tid], c.Now())
				case 18:
					c.SpinLock(lock)
					c.Store64(a, c.Load64(a)+1)
					c.SpinUnlock(lock)
				case 19:
					switch c.RandN(4) {
					case 0:
						c.Store64(a, c.Load64(f))
					case 1:
						c.Store32(a, c.Load32(f+4*c.RandN(2)))
					case 2:
						c.StoreF64(a, c.LoadF64(f))
					default:
						c.StoreF32(a+4, c.LoadF32(f+4))
					}
				case 20:
					// A burst of input loads and stores of what they read.
					var sum uint64
					for j := uint64(0); j < postCap+1+c.RandN(postCap); j++ {
						sum += c.Load64(in + 8*c.RandN(soupInput))
						if c.RandN(3) == 0 {
							c.Store64(base+8*c.RandN(soupWords), sum)
						}
					}
					nows[tid] = append(nows[tid], c.Now())
				default:
					c.LoadF64(a)
				}
			}
			c.Barrier()
			nows[tid] = append(nows[tid], c.Now())
		}
	}
}

// TestPostingPreservesResults pins the posting contract: queuing result-
// less ops, and posting loads of frozen input, never changes a simulated
// result. Each random soup runs three times per protocol — with the input
// frozen, with nothing frozen, and with every core's posting capacity cut
// to zero so every op blocks — and the Stats, final memory image and
// per-core Now readings must be identical.
func TestPostingPreservesResults(t *testing.T) {
	type outcome struct {
		st   Stats
		mem  []uint64
		nows [][]uint64
		eng  EngineCounters
	}
	run := func(p Protocol, seed uint64, freeze, posting bool) outcome {
		cfg := smallCfg(20, p) // two chips
		cfg.Seed = seed
		m := New(cfg)
		if !posting {
			for _, c := range m.cores {
				c.qcap = 0
			}
		}
		base := m.Alloc(soupWords*8, 64) // six lines
		lock := m.Alloc(64, 64)
		in := m.Alloc(soupInput*8, 64) // four lines
		for k := uint64(0); k < soupInput; k++ {
			m.WriteWord64(in+8*k, (k+1)*0x9E3779B97F4A7C15)
		}
		if freeze {
			m.Freeze(in, soupInput*8)
		}
		nows := make([][]uint64, cfg.Cores)
		st := m.Run(soupKernel(base, lock, in, nows))
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%v seed %d freeze=%v posting=%v: %v", p, seed, freeze, posting, err)
		}
		out := outcome{st: st, nows: nows, eng: m.EngineCounters()}
		for k := uint64(0); k < soupWords; k++ {
			out.mem = append(out.mem, m.ReadWord64(base+8*k))
		}
		out.mem = append(out.mem, m.ReadWord64(lock))
		return out
	}
	for _, p := range []Protocol{MESI, MEUSI, MSI, MUSI, RMO} {
		for seed := uint64(1); seed <= 4; seed++ {
			frozen, posted, blocking := run(p, seed, true, true), run(p, seed, false, true), run(p, seed, false, false)
			for _, o := range []struct {
				name string
				outcome
			}{{"frozen", frozen}, {"posted", posted}} {
				if o.st != blocking.st {
					t.Errorf("%v seed %d: stats differ\n%s:   %+v\nblocking: %+v", p, seed, o.name, o.st, blocking.st)
				}
				if !reflect.DeepEqual(o.mem, blocking.mem) {
					t.Errorf("%v seed %d: %s and blocking memory images differ", p, seed, o.name)
				}
				if !reflect.DeepEqual(o.nows, blocking.nows) {
					t.Errorf("%v seed %d: %s and blocking Now readings differ", p, seed, o.name)
				}
			}
			if blocking.eng.Posted != 0 || posted.eng.Posted == 0 {
				t.Errorf("%v seed %d: posted %d ops with posting, %d without", p, seed, posted.eng.Posted, blocking.eng.Posted)
			}
			if frozen.eng.Resumes >= posted.eng.Resumes || posted.eng.Resumes >= blocking.eng.Resumes {
				t.Errorf("%v seed %d: resumed kernels %d times frozen, %d posting, %d blocking",
					p, seed, frozen.eng.Resumes, posted.eng.Resumes, blocking.eng.Resumes)
			}
			for _, o := range []outcome{frozen, posted, blocking} {
				if o.eng.Inline+o.eng.Scheduled != o.st.Accesses {
					t.Errorf("%v seed %d: %d inline + %d scheduled ops, want %d accesses", p, seed, o.eng.Inline, o.eng.Scheduled, o.st.Accesses)
				}
			}
		}
	}
}

// TestEngineCountersPinned pins the engine counts of the wide scheduler
// kernel at 48 cores. They are deterministic, so any change to how the
// engine services ops — a coroutine switch brought back per update, a lost
// run-ahead — moves them.
func TestEngineCountersPinned(t *testing.T) {
	m := New(smallCfg(48, MEUSI))
	shared := m.Alloc(128, 64)
	m.Run(wideKernel(shared))
	want := EngineCounters{Resumes: 496, Inline: 66, Posted: 5566, Scheduled: 5822}
	if got := m.EngineCounters(); got != want {
		t.Errorf("engine counters %+v, want %+v", got, want)
	}
}

// TestPanickingKernelStopsCoroutines: a kernel panic propagates out of Run
// with the kernel's own value, and Run stops every other core's coroutine
// on the way out, so recovered panics leave no goroutine (and no machine)
// behind. Cores are caught parked at a barrier, blocked on a load, with
// posts queued, and not yet spawned.
func TestPanickingKernelStopsCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, at := range []int{0, 1, 3} {
		m := New(smallCfg(16, MEUSI))
		ctr := m.Alloc(64, 64)
		got := func() (r any) {
			defer func() { r = recover() }()
			m.Run(func(c *Ctx) {
				if c.Tid() == 5 {
					for i := 0; i < at; i++ {
						c.Load64(ctr)
					}
					panic(fmt.Sprintf("kernel 5 at %d", at))
				}
				for i := 0; i < 3; i++ {
					c.CommAdd64(ctr, 1)
				}
				if c.Tid()%2 == 0 {
					c.Barrier()
				}
				c.Load64(ctr)
				c.Barrier()
			})
			return nil
		}()
		if want := fmt.Sprintf("kernel 5 at %d", at); got != want {
			t.Errorf("recovered %v, want %q", got, want)
		}
	}
	// The engine's deadlock panic unwinds the same way: core 0 finishes
	// after every other core has parked at a barrier it never reaches.
	m := New(smallCfg(8, MESI))
	func() {
		defer func() { recover() }()
		m.Run(func(c *Ctx) {
			if c.Tid() == 0 {
				c.Work(1 << 20)
				return
			}
			c.Barrier()
		})
		t.Error("a barrier core 0 never reaches must deadlock")
	}()
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after recovered panics, %d before", n, base)
	}
}

// TestFrozenWritesFail: every kind of kernel write to a frozen line panics
// out of Run with a *FrozenWriteError naming the address and the core,
// whether the protocol runs commutative updates natively, as MESI's
// atomics and float-add loops, or remotely; the other cores' coroutines
// are stopped on the way out. Freeze itself refuses to run late or past
// the allocation.
func TestFrozenWritesFail(t *testing.T) {
	base := runtime.NumGoroutine()
	writes := []struct {
		name  string
		write func(c *Ctx, a uint64)
	}{
		{"Store64", func(c *Ctx, a uint64) { c.Store64(a, 1) }},
		{"Store32", func(c *Ctx, a uint64) { c.Store32(a, 1) }},
		{"StoreF64", func(c *Ctx, a uint64) { c.StoreF64(a, 1) }},
		{"AtomicAdd64", func(c *Ctx, a uint64) { c.AtomicAdd64(a, 1) }},
		{"AtomicAdd32", func(c *Ctx, a uint64) { c.AtomicAdd32(a, 1) }},
		{"AtomicOr64", func(c *Ctx, a uint64) { c.AtomicOr64(a, 1) }},
		{"AtomicXchg64", func(c *Ctx, a uint64) { c.AtomicXchg64(a, 1) }},
		{"CAS64", func(c *Ctx, a uint64) { c.CAS64(a, 0, 1) }},
		{"CAS32", func(c *Ctx, a uint64) { c.CAS32(a, 7, 1) }}, // fails its compare, still a write
		{"CommAdd64", func(c *Ctx, a uint64) { c.CommAdd64(a, 1) }},
		{"CommAdd32", func(c *Ctx, a uint64) { c.CommAdd32(a, 1) }},
		{"CommAddF64", func(c *Ctx, a uint64) { c.CommAddF64(a, 1) }},
		{"CommAddF32", func(c *Ctx, a uint64) { c.CommAddF32(a, 1) }},
		{"CommOr64", func(c *Ctx, a uint64) { c.CommOr64(a, 1) }},
		{"CommAnd64", func(c *Ctx, a uint64) { c.CommAnd64(a, 1) }},
		{"CommXor64", func(c *Ctx, a uint64) { c.CommXor64(a, 1) }},
		{"SpinLock", func(c *Ctx, a uint64) { c.SpinLock(a) }},
		{"SpinUnlock", func(c *Ctx, a uint64) { c.SpinUnlock(a) }},
	}
	for _, p := range []Protocol{MEUSI, MESI, RMO} {
		for _, w := range writes {
			m := New(smallCfg(8, p))
			ctr := m.Alloc(64, 64)
			in := m.Alloc(4*64, 64)
			m.Freeze(in+64, 2*64) // lines 1 and 2 of four
			addr := in + 2*64 + 8
			got := func() (r any) {
				defer func() { r = recover() }()
				m.Run(func(c *Ctx) {
					c.Load64(addr) // loads of frozen lines are fine
					for i := 0; i < 3; i++ {
						c.CommAdd64(ctr, 1)
						c.Store64(in, 1) // lines around the frozen range stay writable
						c.Store64(in+3*64, 1)
					}
					if c.Tid() == 3 {
						w.write(c, addr)
					}
					c.Barrier()
					c.Load64(ctr)
				})
				return nil
			}()
			fw, ok := got.(*FrozenWriteError)
			if !ok || fw.Addr != addr || fw.Core != 3 {
				t.Errorf("%v %s: recovered %v, want *FrozenWriteError{Addr: %#x, Core: 3}", p, w.name, got, addr)
			}
		}
	}
	if msg := (&FrozenWriteError{Addr: 0x100040, Core: 3}).Error(); msg != "sim: core 3 wrote frozen address 0x100040" {
		t.Errorf("Error() = %q", msg)
	}
	for _, late := range []bool{false, true} {
		m := New(smallCfg(2, MESI))
		a := m.Alloc(64, 64)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Freeze (after Run %v) did not panic", late)
				}
			}()
			if late {
				m.Run(func(*Ctx) {})
				m.Freeze(a, 64)
			} else {
				m.Freeze(a, 128) // past the allocation
			}
		}()
	}
	for i := 0; runtime.NumGoroutine() > base && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after frozen-write panics, %d before", n, base)
	}
}
