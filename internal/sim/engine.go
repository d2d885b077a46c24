package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"

	"repro/internal/ops"
)

// opKind enumerates the primitive operations a simulated core can issue to
// the memory system.
type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opRMW   // atomic read-modify-write (fetch-and-op); returns the old value
	opCAS   // compare-and-swap; may fail
	opComm  // commutative update (COUP instruction)
	opFAdd  // float add as a load+CAS retry loop, the MESI/MSI fallback (see Machine.step)
	opDrain // no memory access: the kernel waits for its posted ops (Ctx.Now)
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

// request is the operation a core hands to the engine when it yields or
// posts.
type request struct {
	kind  opKind
	addr  uint64
	val   uint64 // operand (store value, add delta, CAS new value)
	cmp   uint64 // CAS expected value
	width uint8  // access width in bytes (4 or 8)
	otype ops.Type
	rop   rmwOp

	// Results, filled by the engine before resuming the core. An opFAdd
	// keeps its loop state here instead: ok once its load is done, with the
	// loaded value in cmp.
	out uint64
	ok  bool
}

// postCap is the capacity of a core's posted-op queue (a power of two,
// so the ring indexes with a mask). A kernel that issues more posting ops
// in a row than this blocks on the next one.
const postCap = 16

// posted is a queued operation, whose result the kernel does not wait for,
// and the Work cycles between its predecessor's completion and its own
// issue.
type posted struct {
	req request
	gap uint64
}

// core is one simulated hardware context. Its kernel runs inside a pulled
// iterator (iter.Pull), so suspending at a memory operation and resuming
// with the result is a direct coroutine switch on the engine's goroutine
// schedule — no channel operations and no Go-scheduler round trip.
//
// Operations the kernel needs no result from are posted instead (see
// Ctx.post): they queue in q, oldest at q[qh], and the kernel runs on.
// While any are pending, time is the oldest one's issue time — the core's
// scheduler key — and gap collects the Work issued after the newest one,
// owed by whatever the kernel blocks on next.
type core struct {
	id, chip int
	time     uint64
	req      request
	pc       *privCache              // this core's private caches (hierarchy-owned)
	yield    func(struct{}) bool     // suspends the kernel, set once at spawn
	next     func() (struct{}, bool) // resumes the kernel until its next request
	stop     func()                  // unwinds a suspended kernel (Run's panic path)
	rng      rng
	instrs   uint64 // Work()-modelled instructions

	q      [postCap]posted
	qh, qn int // ring head and length
	qcap   int // posting capacity: postCap, or 0 to make every op block (tests)
	gap    uint64
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
	// guards against double Release. Scheduler scratch (treeKeys, treeLos)
	// is owned by the machine so recycled machines run without per-Run
	// allocations.
	arena    *Arena
	shape    machineShape
	released bool
	treeKeys []uint64
	treeLos  []int32

	// raH is the run-ahead horizon: the packed (time<<16 | id) key of the
	// earliest next operation among every core except the one currently
	// executing. Ctx.exec and Ctx.post service operations inline — without
	// a coroutine switch — while the running core's own packed key stays
	// below this horizon. The zero value makes every core post or yield its
	// first operation. Only runTree and releaseBarrier update it.
	raH uint64

	// commNative caches the protocol's commNative axis (hasU || remote),
	// which the per-operation dispatch in Ctx.comm reads.
	commNative bool

	// frozen is the bitmap of frozen lines (Freeze), bit l%64 of word l/64
	// for line index l. It is empty on a machine that froze nothing, so
	// there the per-op check is one length compare. Words past its length
	// are always zero, so Freeze can grow it within capacity.
	frozen []uint64

	eng EngineCounters
}

// EngineCounters are host-side counts of how the engine serviced one Run.
// They describe the simulator's own work, not the simulated machine, so
// they stay outside Stats and the golden files; like Stats they are
// deterministic for a given configuration and kernel. Every simulated
// access is serviced exactly once, inline or by the scheduler, so
// Inline+Scheduled == Stats.Accesses.
type EngineCounters struct {
	// Resumes counts kernel coroutine resumes: one to start each kernel,
	// one after each blocking op the scheduler services, one per core per
	// barrier release. Each is a coroutine switch pair.
	Resumes uint64
	// Inline counts accesses serviced in Ctx under the run-ahead horizon.
	Inline uint64
	// Posted counts ops queued on their core: result-less ops and loads of
	// frozen memory. A float-add loop counts once, however many accesses
	// it takes.
	Posted uint64
	// Scheduled counts accesses serviced by the scheduler: those of posted
	// ops and of the blocking ops a kernel yielded.
	Scheduled uint64
}

// EngineCounters returns the engine counts of the machine's Run.
func (m *Machine) EngineCounters() EngineCounters { return m.eng }

// New builds a machine for cfg. It panics on invalid configuration (a
// programming error in experiment setup, not a runtime condition).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:        cfg,
		allocPtr:   1 << 20, // leave page zero unmapped
		commNative: cfg.Protocol.commNative(),
	}
	m.cores = make([]*core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &core{
			id:   i,
			chip: i / cfg.CoresPerChip,
			rng:  newRNG(cfg.Seed*0x9E3779B97F4A7C15 + uint64(i) + 1),
			qcap: postCap,
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

// Freeze declares the allocated memory [addr, addr+size) read-only for
// kernels, a promise that lets its loads post: every line the range
// overlaps stays frozen for the machine's Run. A kernel load of a frozen
// line takes its value from the memory image at issue and runs on, while
// the engine services the access in the usual global order; that value is
// exact because nothing writes the line. Every kernel write to a frozen
// line — a store, atomic, CAS or commutative update, under any protocol —
// panics with a *FrozenWriteError instead; host-side WriteWord* stay
// unchecked. Freeze changes no simulated result. It is valid before Run
// only.
func (m *Machine) Freeze(addr, size uint64) {
	if m.ran {
		panic("sim: Machine.Freeze after Run")
	}
	if size == 0 {
		return
	}
	if addr+size < addr || addr+size > m.allocPtr {
		panic(fmt.Sprintf("sim: Freeze of unallocated memory [%#x, %#x)", addr, addr+size))
	}
	first, last := addr>>6, (addr+size-1)>>6
	if n := int(last>>6) + 1; n > len(m.frozen) {
		m.frozen = slices.Grow(m.frozen, n-len(m.frozen))[:n]
	}
	for l := first; l <= last; l++ {
		m.frozen[l>>6] |= 1 << (l & 63)
	}
}

// frozenAt reports whether the line holding addr is frozen. With nothing
// frozen it is one length compare.
func (m *Machine) frozenAt(addr uint64) bool {
	w := addr >> 12 // line addr>>6, bitmap word line>>6
	return w < uint64(len(m.frozen)) && m.frozen[w]>>(addr>>6&63)&1 != 0
}

// FrozenWriteError is the panic value of a kernel write to frozen memory
// (see Machine.Freeze).
type FrozenWriteError struct {
	Addr uint64 // the address written
	Core int    // the core that wrote it
}

func (e *FrozenWriteError) Error() string {
	return fmt.Sprintf("sim: core %d wrote frozen address %#x", e.Core, e.Addr)
}

// frozenWrite panics with the *FrozenWriteError for c's request. It stays
// out of line so the error's allocation never reaches the hot paths that
// check for frozen writes.
//
//go:noinline
func frozenWrite(c *core) {
	panic(&FrozenWriteError{Addr: c.req.addr, Core: c.id})
}

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

// errStopped unwinds a suspended kernel whose coroutine is being stopped:
// Ctx.yield panics with it, and the coroutine's top frame recovers it.
var errStopped = errors.New("sim: kernel stopped")

// spawn starts kernel as a coroutine on core c and runs it to its first
// request. The kernel body executes inside the pulled iterator: Ctx.yield
// suspends it with a request stored on the core, and the engine resumes
// the core by pulling again after writing results into c.req.
func (m *Machine) spawn(c *core, kernel func(*Ctx)) {
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				panic(r)
			}
		}()
		c.yield = yield
		kernel(&Ctx{m: m, c: c})
		c.req = request{kind: opFinish}
	})
	m.eng.Resumes++
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
	// A kernel panic surfaces here from a resume. Stop every other
	// kernel on the way out, or each would stay parked in its coroutine,
	// holding the machine, for the life of the process. Finished
	// coroutines make stop a no-op, so the normal return pays n calls.
	defer func() {
		for _, c := range m.cores {
			if c.stop != nil {
				c.stop()
			}
		}
	}()

	// Spawn every core's kernel coroutine, running each to its first
	// operation.
	for _, c := range m.cores {
		m.spawn(c, kernel)
	}

	m.stats.Cycles = m.runTree()
	// Every access is one instruction; Work adds the rest.
	m.stats.Instrs = m.stats.Accesses
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
// (time<<16 | id) keys, one leaf per core. A core's key is the issue time
// of its oldest pending op: a posted op while any are queued, else the op
// its kernel blocked on. Picking the earliest core is a root read;
// re-keying a serviced core replays log2(cores) matches; and the run-ahead
// horizon — the earliest op among every other core — is the best of the
// losers along the winner's path. The packed keys make every match a single
// uint64 compare with the (time, id) tie-break built in.
//
// A picked core with posted ops has its oldest one serviced and is
// re-keyed; its kernel stays suspended. Once its queue is empty, its
// blocking op is serviced and the kernel resumed with the horizon
// published in raH, so it keeps servicing its own operations inline (in
// Ctx.exec and Ctx.post, with no scheduler work and no coroutine switch)
// until it would overtake another core; a single-core machine runs nearly
// its whole kernel inline. A float-add loop, posted or blocking, advances
// one access per pick and is re-keyed between them; a blocked kernel
// resumes only once the loop is done. Either way every access is serviced
// in (issue time, core id) order. It returns the maximum core finish time.
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
	live, waiting := n, 0
	var lastArrival, end uint64
	for live > 0 {
		i1 := int(los[0])
		if keys[i1] == notRunnable {
			panic("sim: deadlock — some cores finished while others wait at a barrier")
		}
		c := m.cores[i1]
		if c.qn > 0 {
			// The core's oldest posted op is the earliest op anywhere.
			// Service it and re-key; the kernel stays suspended.
			m.servePosted(c)
			keys[i1] = packKey(c.time, i1)
			update(i1)
			continue
		}
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
			waiting++
			if c.time > lastArrival {
				lastArrival = c.time
			}
			if waiting == live {
				m.releaseBarrier(lastArrival, func(w *core) {
					keys[w.id] = packKey(w.time, w.id)
				})
				los[0] = build(1)
				waiting, lastArrival = 0, 0
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
		done := true
		if c.req.kind != opDrain {
			m.eng.Scheduled++
			done = m.step(c, &c.req)
		}
		if done {
			m.eng.Resumes++
			c.next() // the kernel runs on: inline below the horizon, posting above it
		}
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
	return end
}

// servePosted services c's oldest posted op, then advances c's clock by
// the Work that separates that op's completion from the issue of c's next
// pending op, so that c.time is again c's scheduler key.
//
//coup:hotpath
func (m *Machine) servePosted(c *core) {
	e := &c.q[c.qh&(postCap-1)]
	m.eng.Scheduled++
	if !m.step(c, &e.req) {
		return // a float-add loop issues its next access as this one completes
	}
	c.qh = (c.qh + 1) & (postCap - 1)
	c.qn--
	if c.qn > 0 {
		c.time += c.q[c.qh&(postCap-1)].gap
	} else {
		c.time += c.gap
		c.gap = 0
	}
}

// step services one access of r, issued at c.time, and reports whether r
// is complete. Every op is one access except the float-add loop (opFAdd):
// a load, then a CAS of the loaded value plus the operand, where a failed
// CAS sends the loop back to its load. Each access issues as its
// predecessor completes, exactly as the loop runs in a kernel. All three
// service sites — Ctx.post inline, servePosted and runTree's blocking
// branch — step the loop through here.
//
//coup:hotpath
func (m *Machine) step(c *core, r *request) bool {
	if r.kind != opFAdd {
		c.time += m.hier.access(c, r)
		return true
	}
	a := request{kind: opLoad, addr: r.addr, width: r.width}
	if r.ok {
		a.kind, a.cmp, a.val = opCAS, r.cmp, ops.ApplyAt(r.otype, r.cmp, 0, r.val)
	}
	c.time += m.hier.access(c, &a)
	if a.kind == opLoad {
		r.cmp, r.ok = a.out, true
		return false
	}
	r.ok = false
	return a.ok
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

// releaseBarrier aligns every core waiting at the barrier to its exit time
// (the last arrival plus the barrier cost) and resumes them one at a time,
// deterministically in core order, each running to its next pending op
// before reschedule re-keys it. The waiters are exactly the cores parked
// at opBarrier: a core parks only once its posted ops have drained, and
// every live core has parked by the time the barrier releases.
func (m *Machine) releaseBarrier(lastArrival uint64, reschedule func(*core)) {
	exit := lastArrival + m.cfg.BarrierBase + m.cfg.BarrierPerLog2Core*log2ceil(m.cfg.Cores)
	// Inline servicing is off during the release (a zero horizon fails
	// every run-ahead check), so resumed kernels post or block at their
	// next operation and the scheduler interleaves the post-barrier ops in
	// global time order.
	m.raH = 0
	for _, c := range m.cores {
		if c.req.kind == opBarrier {
			c.time = exit
			m.eng.Resumes++
			c.next()
			reschedule(c)
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
