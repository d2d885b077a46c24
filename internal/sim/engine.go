package sim

import (
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/ops"
)

// opKind enumerates the primitive operations a simulated core can issue to
// the memory system.
type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opRMW  // atomic read-modify-write (fetch-and-op); returns the old value
	opCAS  // compare-and-swap; may fail
	opComm // commutative update (COUP instruction)
	opBarrier
	opFinish
)

// rmwOp selects the function an opRMW applies.
type rmwOp uint8

const (
	rmwAdd rmwOp = iota
	rmwOr
	rmwAnd
	rmwXor
	rmwXchg
)

// request is the operation a core hands to the engine when it yields.
type request struct {
	kind  opKind
	addr  uint64
	val   uint64 // operand (store value, add delta, CAS new value)
	cmp   uint64 // CAS expected value
	width uint8  // access width in bytes (4 or 8)
	otype ops.Type
	rop   rmwOp

	// Results, filled by the engine before resuming the core.
	out uint64
	ok  bool
}

// core is one simulated hardware context. Its kernel runs inside a pulled
// iterator (iter.Pull), so suspending at a memory operation and resuming
// with the result is a direct coroutine switch on the engine's goroutine
// schedule — no channel operations and no Go-scheduler round trip.
type core struct {
	id, chip int
	time     uint64
	req      request
	pc       *privCache              // this core's private caches (hierarchy-owned)
	yield    func(struct{}) bool     // suspends the kernel, set once at spawn
	next     func() (struct{}, bool) // resumes the kernel until its next request
	rng      rng
	instrs   uint64 // Work()-modelled instructions
}

// Machine is a configured simulated system. Build one with New, set up the
// memory image with Alloc/WriteWord64, then Run a kernel.
type Machine struct {
	cfg   Config
	cores []*core
	hier  *hierarchy
	stats Stats

	allocPtr uint64
	ran      bool

	// arena/shape link a machine built by NewIn back to its pool; released
	// guards against double Release. Scheduler scratch (treeKeys, treeLos,
	// barrier) is owned by the machine so recycled machines run without
	// per-Run allocations.
	arena    *Arena
	shape    machineShape
	released bool
	treeKeys []uint64
	treeLos  []int32
	barrier  []*core

	// raH is the run-ahead horizon: the packed (time<<16 | id) key of the
	// earliest next operation among every core except the one currently
	// executing. Ctx.exec services operations inline — without a coroutine
	// switch — while the running core's own packed key stays below this
	// horizon. The zero value makes every core yield its first operation
	// to the scheduler. Only runTree and releaseBarrier update it.
	raH uint64

	// commNative caches Protocol.Spec().CommNative() so the per-operation
	// dispatch in Ctx.comm avoids the protocol-table lock.
	commNative bool
}

// New builds a machine for cfg. It panics on invalid configuration (a
// programming error in experiment setup, not a runtime condition).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:        cfg,
		allocPtr:   1 << 20, // leave page zero unmapped
		commNative: cfg.Protocol.Spec().CommNative(),
	}
	m.cores = make([]*core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &core{
			id:   i,
			chip: i / cfg.CoresPerChip,
			rng:  newRNG(cfg.Seed*0x9E3779B97F4A7C15 + uint64(i) + 1),
		}
	}
	m.hier = newHierarchy(&m.cfg, &m.stats)
	for i, c := range m.cores {
		c.pc = m.hier.priv[i]
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Alloc reserves size bytes of simulated memory aligned to align (which
// must be a power of two, at least 8) and returns the base address.
// Allocation is only valid before Run.
func (m *Machine) Alloc(size, align uint64) uint64 {
	if align < 8 || align&(align-1) != 0 {
		panic(fmt.Sprintf("sim: bad alignment %d", align))
	}
	m.allocPtr = (m.allocPtr + align - 1) &^ (align - 1)
	base := m.allocPtr
	m.allocPtr += size
	// The cache arrays store 31-bit hardware-style tags (line >> setBits),
	// exact only while line addresses fit 30 bits; cap the simulated
	// physical address space accordingly.
	if m.allocPtr > 1<<36 {
		panic("sim: simulated address space exceeds 64 GB")
	}
	return base
}

// AllocLines reserves n cache lines and returns the base address (64-byte
// aligned).
func (m *Machine) AllocLines(n uint64) uint64 { return m.Alloc(n*64, 64) }

// WriteWord64 initializes simulated memory before Run (no timing cost).
func (m *Machine) WriteWord64(addr, v uint64) { m.hier.store.write64(addr, v) }

// WriteWord32 initializes a 32-bit simulated memory word before Run.
func (m *Machine) WriteWord32(addr uint64, v uint32) { m.hier.store.write32(addr, v) }

// ReadWord64 inspects simulated memory. After Run the machine is drained,
// so this reflects all buffered commutative updates.
func (m *Machine) ReadWord64(addr uint64) uint64 { return m.hier.store.read64(addr) }

// ReadWord32 inspects a 32-bit simulated memory word.
func (m *Machine) ReadWord32(addr uint64) uint32 { return m.hier.store.read32(addr) }

// Stats returns the collected statistics. Valid after Run.
func (m *Machine) Stats() Stats { return m.stats }

// spawn starts kernel as a coroutine on core c and runs it to its first
// request. The kernel body executes inside the pulled iterator: Ctx.issue
// stores the request on the core and yields, and the engine resumes the
// core by pulling again after writing results into c.req.
func (m *Machine) spawn(c *core, kernel func(*Ctx)) {
	var stop func()
	c.next, stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		kernel(&Ctx{m: m, c: c})
		c.req = request{kind: opFinish}
	})
	_ = stop // kernels always run to completion; the iterator exhausts itself
	c.next()
}

// treeDepth bounds the loser tree's height: the winner's path is recorded
// in fixed [treeDepth] scratch. 2^treeDepth leaves cover every machine
// Validate accepts (maxCores); the constant below fails to compile if
// they ever stop doing so.
const treeDepth = 16

const _ = uint(1<<treeDepth - maxCores)

// Run executes kernel once per core, each as a simulated thread, and
// returns the collected statistics. Run may be called once per Machine.
func (m *Machine) Run(kernel func(c *Ctx)) Stats {
	if m.ran {
		panic("sim: Machine.Run called twice")
	}
	m.ran = true

	// Spawn every core's kernel coroutine, running each to its first
	// operation.
	for _, c := range m.cores {
		m.spawn(c, kernel)
	}

	m.stats.Cycles = m.runTree()
	for _, c := range m.cores {
		m.stats.Instrs += c.instrs
	}
	m.hier.drain()
	return m.stats
}

// notRunnable parks a core in the scheduler's key table (finished, or
// waiting at a barrier). As a packed key it compares after every real
// (time, id) key.
const notRunnable = ^uint64(0)

// runTree drives the simulation with a loser (tournament) tree over packed
// (time<<16 | id) keys, one leaf per core. Picking the earliest core is a
// root read; re-keying a serviced core replays log2(cores) matches; and the
// run-ahead horizon — the earliest op among every other core — is the best
// of the losers along the winner's path. The packed keys make every match a
// single uint64 compare with the (time, id) tie-break built in. The picked
// core is resumed with that horizon published in raH, so it keeps
// servicing its own operations inline (in Ctx.exec, with no scheduler work
// and no coroutine switch) until it would overtake another core; a
// single-core machine runs its whole kernel inline. It returns the maximum
// core finish time.
func (m *Machine) runTree() uint64 {
	n := len(m.cores)
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	if cap(m.treeKeys) < p2 {
		m.treeKeys = make([]uint64, p2)
		m.treeLos = make([]int32, max(p2, 2))
	}
	keys := m.treeKeys[:p2]
	for i := range keys {
		keys[i] = notRunnable
	}
	for i, c := range m.cores {
		keys[i] = packKey(c.time, i)
	}
	// los[1..p2-1] hold the loser of each internal match; los[0] the winner.
	los := m.treeLos[:max(p2, 2)]
	var build func(node int) int32
	build = func(node int) int32 {
		if node >= p2 {
			return int32(node - p2)
		}
		a, b := build(2*node), build(2*node+1)
		if keys[b] < keys[a] {
			a, b = b, a
		}
		los[node] = b
		return a
	}
	los[0] = build(1)

	// update replays leaf i's matches up the tree after its key changed.
	// Replay is only sound for the current winner's leaf (every loser
	// stored on the winner's path came from the opposing subtree); the
	// loop below re-keys nothing else, and bulk re-keys (barrier release)
	// rebuild the whole tree instead.
	update := func(i int) {
		w := int32(i)
		for node := (p2 + i) >> 1; node >= 1; node >>= 1 {
			if keys[los[node]] < keys[w] {
				w, los[node] = los[node], w
			}
		}
		los[0] = w
	}

	// pathLos/pathKeys record the winner's path losers and their keys;
	// every slot read in an iteration is written earlier in it, so they are
	// declared once rather than zeroed per operation.
	var pathLos [treeDepth]int32
	var pathKeys [treeDepth]uint64
	live := n
	barrierWait := m.barrier[:0]
	var end uint64
	for live > 0 {
		i1 := int(los[0])
		c := m.cores[i1]
		if c.req.kind == opFinish {
			live--
			if c.time > end {
				end = c.time
			}
			keys[i1] = notRunnable
			update(i1)
			continue
		}
		if c.req.kind == opBarrier {
			keys[i1] = notRunnable
			update(i1)
			barrierWait = append(barrierWait, c)
			if len(barrierWait) == live {
				m.releaseBarrier(barrierWait, func(w *core) {
					keys[w.id] = packKey(w.time, w.id)
				})
				los[0] = build(1)
				barrierWait = barrierWait[:0]
			}
			continue
		}
		// Record the winner's path once: the losers and their keys feed both
		// the horizon (their minimum) and, after the service, the match
		// replay — nothing else can re-key a leaf in between, so the replay
		// reuses the recorded keys instead of re-walking the key table.
		// Path length is log2(p2) <= treeDepth; the &(treeDepth-1) masks
		// let the compiler drop the bounds checks.
		h := notRunnable
		d := 0
		for node := (p2 + i1) >> 1; node >= 1; node >>= 1 {
			l := los[node]
			k := keys[l]
			pathLos[d&(treeDepth-1)], pathKeys[d&(treeDepth-1)] = l, k
			d++
			if k < h {
				h = k
			}
		}
		m.raH = h
		c.time += m.hier.access(c)
		c.next() // the kernel run-ahead services further ops inline
		// Re-key the winner and replay its matches against the recorded
		// path losers.
		nk := packKey(c.time, i1)
		keys[i1] = nk
		w, kw := int32(i1), nk
		d = 0
		for node := (p2 + i1) >> 1; node >= 1; node >>= 1 {
			l, kl := pathLos[d&(treeDepth-1)], pathKeys[d&(treeDepth-1)]
			d++
			if kl < kw {
				los[node] = w
				w, kw = l, kl
			}
		}
		los[0] = w
	}
	if len(barrierWait) > 0 {
		panic("sim: deadlock — some cores finished while others wait at a barrier")
	}
	m.barrier = barrierWait[:0]
	return end
}

// packKey packs a core's next-op time and id into one comparable word:
// smaller key == earlier (time, id). Times are bounded to 2^47 cycles —
// over a simulated day at Table-1 clock rates, far beyond any experiment —
// so the shift cannot overflow; ids fit the low 16 bits because Validate
// caps machines at maxCores (4096) cores.
func packKey(t uint64, id int) uint64 {
	if t >= 1<<47 {
		panic("sim: simulated time exceeds 2^47 cycles")
	}
	return t<<16 | uint64(id)
}

// releaseBarrier aligns all waiting cores to the barrier exit time and
// resumes them one at a time (deterministically, in core order), each
// yielding its next operation back to the scheduler via reschedule.
func (m *Machine) releaseBarrier(waiting []*core, reschedule func(*core)) {
	var maxT uint64
	for _, c := range waiting {
		if c.time > maxT {
			maxT = c.time
		}
	}
	exit := maxT + m.cfg.BarrierBase + m.cfg.BarrierPerLog2Core*log2ceil(m.cfg.Cores)
	// Inline servicing is off during the release (a zero horizon fails
	// every run-ahead check), so resumed kernels stop at their next
	// operation and the scheduler interleaves the post-barrier ops in
	// global time order.
	m.raH = 0
	for id := 0; id < len(m.cores); id++ {
		for _, c := range waiting {
			if c.id == id {
				c.time = exit
				c.next()
				reschedule(c)
			}
		}
	}
}

// rng is a splitmix64 generator; deterministic per core.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng { return rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) via Lemire's multiply-shift
// reduction: the high 64 bits of next()*n. Unlike next()%n, which favors
// small residues for non-power-of-two n, the multiply spreads the 2^64
// input values across buckets that differ in size by at most one.
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}
