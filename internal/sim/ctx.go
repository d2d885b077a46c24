package sim

import (
	"math"

	"repro/internal/ops"
)

// Ctx is the interface a simulated thread uses to touch the memory system.
// Every method models one or more instructions of the simulated ISA:
// ordinary loads and stores, x86-style atomics, and COUP's commutative-
// update instructions (which take an address and a value and write no
// register, Sec 3.1.1).
//
// Under the MESI baseline the Comm* methods transparently fall back to the
// equivalent atomic read-modify-write (integer) or load+CAS retry loop
// (floating point, run by the engine), exactly how the paper's baseline
// benchmark implementations express the same updates. Under RMO they are
// shipped to the line's home bank. Workloads are therefore written once
// and run unmodified under every protocol.
//
// Stores and commutative updates return nothing, so they are posted: the
// kernel goes on running while the engine services them later, in the
// same global order as any other op (see Ctx.post). Loads of memory
// frozen with Machine.Freeze post too, with the value they would return.
// A kernel may therefore run ahead, in host time, of its own pending ops.
// That makes a contract: kernels exchange data only through simulated
// memory, or through Go-side state read on the far side of a Barrier,
// which drains every core's pending ops; and kernels never write frozen
// memory, which fails loudly with a *FrozenWriteError instead of returning
// a stale value.
type Ctx struct {
	m *Machine
	c *core
}

// Tid returns this thread's id (0..NThreads-1); one thread runs per core.
func (x *Ctx) Tid() int { return x.c.id }

// NThreads returns the number of simulated threads.
func (x *Ctx) NThreads() int { return len(x.m.cores) }

// Chip returns the processor chip this thread's core belongs to.
func (x *Ctx) Chip() int { return x.c.chip }

// Now returns the core's current cycle count. With posted ops pending, that
// count depends on their latencies, so Now first waits for the engine to
// service them.
func (x *Ctx) Now() uint64 {
	if x.c.qn > 0 {
		x.c.req = request{kind: opDrain}
		x.yield()
	}
	return x.c.time
}

// Rand returns a deterministic per-core pseudo-random value.
func (x *Ctx) Rand() uint64 { return x.c.rng.next() }

// RandN returns a deterministic per-core value in [0, n).
func (x *Ctx) RandN(n uint64) uint64 { return x.c.rng.intn(n) }

// Work advances the core's clock by n cycles of non-memory computation and
// accounts roughly one instruction per cycle for instruction-mix stats.
// With posted ops pending, the clock is their issue time, so the cycles
// are owed by the next op instead.
func (x *Ctx) Work(n uint64) {
	c := x.c
	if c.qn == 0 {
		c.time += n
	} else {
		c.gap += n
	}
	c.instrs += n
}

// Barrier blocks until every thread reaches it, and so until every core's
// posted ops have been serviced. Cost models a software tree barrier (see
// Config.BarrierBase).
func (x *Ctx) Barrier() {
	x.c.req = request{kind: opBarrier}
	x.yield()
}

// yield suspends the kernel coroutine and hands x.c.req to the engine;
// when the engine resumes the core, results are already in x.c.req. This
// is a direct coroutine switch (iter.Pull), not a channel handoff. A false
// return means Run is stopping the coroutine; errStopped unwinds the
// kernel to its top frame (see spawn).
func (x *Ctx) yield() {
	if !x.c.yield(struct{}{}) {
		panic(errStopped)
	}
}

// exec issues the operation already stored in c.req (writing the request
// directly into the core avoids copying it through a parameter), whose
// result the kernel reads, and returns it with the result filled in.
//
//coup:hotpath
func (x *Ctx) exec() *request {
	c := x.c
	m := x.m
	if m.frozenAt(c.req.addr) {
		// Nothing writes a frozen line (post fails an atomic or CAS that
		// would), so its image already holds the value the engine will
		// load: the kernel takes it now, and the load posts.
		w := m.hier.store.read64(c.req.addr)
		if c.req.width == 4 {
			w = uint64(word32(w, c.req.addr))
		}
		c.req.out = w
		x.post()
		return &c.req
	}
	// Run-ahead fast path: while this core's clock is still ahead of every
	// other core's next operation (the packed horizon raH, maintained by
	// the scheduler and frozen while this core runs), the operation is the
	// next event in global order and can be serviced right here — no
	// coroutine switch, no scheduler touch. A single-core machine never
	// leaves this path.
	if c.time<<16|uint64(uint16(c.id)) < m.raH {
		c.time += m.hier.access(c, &c.req)
		m.eng.Inline++
		return &c.req
	}
	x.yield()
	return &c.req
}

// post issues the operation in c.req, whose result the kernel never
// reads: a write that returns nothing, or a load of frozen memory whose
// value exec already took. Below the run-ahead horizon it is serviced
// inline, like any op; a float-add loop steps inline while it stays below.
// Otherwise, while the core's queue has room, it is posted: queued with
// the Work issued since its predecessor, and the kernel runs on without a
// coroutine switch. The engine services it when its (issue time, core id)
// comes up, exactly where it would have serviced the op had the kernel
// blocked on it. While ops are posted, the core's clock stays at the
// oldest one's issue time, which failed the horizon check, so no later op
// is serviced inline ahead of them. A full queue makes the op block.
//
//coup:hotpath
func (x *Ctx) post() {
	c := x.c
	m := x.m
	if m.frozenAt(c.req.addr) && c.req.kind != opLoad {
		frozenWrite(c)
	}
	for c.time<<16|uint64(uint16(c.id)) < m.raH {
		m.eng.Inline++
		if m.step(c, &c.req) {
			return
		}
	}
	if c.qn < c.qcap {
		e := &c.q[(c.qh+c.qn)&(postCap-1)]
		e.req, e.gap = c.req, c.gap
		c.gap = 0
		c.qn++
		m.eng.Posted++
		return
	}
	x.yield()
}

// Load64 loads a 64-bit word.
func (x *Ctx) Load64(addr uint64) uint64 {
	x.c.req = request{kind: opLoad, addr: addr, width: 8}
	return x.exec().out
}

// Load32 loads a 32-bit word.
func (x *Ctx) Load32(addr uint64) uint32 {
	x.c.req = request{kind: opLoad, addr: addr, width: 4}
	return uint32(x.exec().out)
}

// LoadF64 loads a float64.
func (x *Ctx) LoadF64(addr uint64) float64 { return math.Float64frombits(x.Load64(addr)) }

// LoadF32 loads a float32.
func (x *Ctx) LoadF32(addr uint64) float32 { return math.Float32frombits(x.Load32(addr)) }

// Store64 stores a 64-bit word.
func (x *Ctx) Store64(addr, v uint64) {
	x.c.req = request{kind: opStore, addr: addr, val: v, width: 8}
	x.post()
}

// Store32 stores a 32-bit word.
func (x *Ctx) Store32(addr uint64, v uint32) {
	x.c.req = request{kind: opStore, addr: addr, val: uint64(v), width: 4}
	x.post()
}

// StoreF64 stores a float64.
func (x *Ctx) StoreF64(addr uint64, v float64) { x.Store64(addr, math.Float64bits(v)) }

// StoreF32 stores a float32.
func (x *Ctx) StoreF32(addr uint64, v float32) { x.Store32(addr, math.Float32bits(v)) }

// AtomicAdd64 is an atomic 64-bit fetch-and-add; it returns the old value.
func (x *Ctx) AtomicAdd64(addr, delta uint64) uint64 {
	x.c.req = request{kind: opRMW, addr: addr, val: delta, width: 8, rop: rmwAdd}
	return x.exec().out
}

// AtomicAdd32 is an atomic 32-bit fetch-and-add; it returns the old value.
func (x *Ctx) AtomicAdd32(addr uint64, delta uint32) uint32 {
	x.c.req = request{kind: opRMW, addr: addr, val: uint64(delta), width: 4, rop: rmwAdd}
	return uint32(x.exec().out)
}

// AtomicOr64 is an atomic 64-bit fetch-and-or; it returns the old value.
func (x *Ctx) AtomicOr64(addr, bits uint64) uint64 {
	x.c.req = request{kind: opRMW, addr: addr, val: bits, width: 8, rop: rmwOr}
	return x.exec().out
}

// AtomicXchg64 atomically exchanges a 64-bit word, returning the old value.
func (x *Ctx) AtomicXchg64(addr, v uint64) uint64 {
	x.c.req = request{kind: opRMW, addr: addr, val: v, width: 8, rop: rmwXchg}
	return x.exec().out
}

// CAS64 performs an atomic compare-and-swap on a 64-bit word and reports
// whether it succeeded.
func (x *Ctx) CAS64(addr, old, new uint64) bool {
	x.c.req = request{kind: opCAS, addr: addr, cmp: old, val: new, width: 8}
	return x.exec().ok
}

// CAS32 performs an atomic compare-and-swap on a 32-bit word.
func (x *Ctx) CAS32(addr uint64, old, new uint32) bool {
	x.c.req = request{kind: opCAS, addr: addr, cmp: uint64(old), val: uint64(new), width: 4}
	return x.exec().ok
}

// comm issues a commutative update, falling back per protocol. Every form
// returns nothing, so it posts. Under MESI/MSI an integer update becomes
// the matching atomic fetch-op, its result discarded, and a floating-point
// one the load+CAS retry loop, which the engine runs (Machine.step).
//
//coup:hotpath
func (x *Ctx) comm(t ops.Type, addr, v uint64, width uint8) {
	r := request{kind: opRMW, addr: addr, val: v, width: width} // rmwAdd
	switch {
	case x.m.commNative:
		r.kind, r.otype = opComm, t
	case t == ops.AddF32 || t == ops.AddF64:
		r.kind, r.otype = opFAdd, t
	case t == ops.Or64:
		r.rop = rmwOr
	case t == ops.And64:
		r.rop = rmwAnd
	case t == ops.Xor64:
		r.rop = rmwXor
	}
	x.c.req = r
	x.post()
}

// CommAdd64 issues a commutative 64-bit integer addition.
func (x *Ctx) CommAdd64(addr, delta uint64) { x.comm(ops.AddI64, addr, delta, 8) }

// CommAdd32 issues a commutative 32-bit integer addition.
func (x *Ctx) CommAdd32(addr uint64, delta uint32) { x.comm(ops.AddI32, addr, uint64(delta), 4) }

// CommAddF64 issues a commutative float64 addition.
func (x *Ctx) CommAddF64(addr uint64, v float64) { x.comm(ops.AddF64, addr, math.Float64bits(v), 8) }

// CommAddF32 issues a commutative float32 addition.
func (x *Ctx) CommAddF32(addr uint64, v float32) {
	x.comm(ops.AddF32, addr, uint64(math.Float32bits(v)), 4)
}

// CommOr64 issues a commutative 64-bit OR.
func (x *Ctx) CommOr64(addr, bits uint64) { x.comm(ops.Or64, addr, bits, 8) }

// CommAnd64 issues a commutative 64-bit AND.
func (x *Ctx) CommAnd64(addr, bits uint64) { x.comm(ops.And64, addr, bits, 8) }

// CommXor64 issues a commutative 64-bit XOR.
func (x *Ctx) CommXor64(addr, bits uint64) { x.comm(ops.Xor64, addr, bits, 8) }

// SpinLock acquires a test-and-test-and-set spinlock at addr (0 = free).
func (x *Ctx) SpinLock(addr uint64) {
	for {
		if x.Load64(addr) == 0 && x.CAS64(addr, 0, 1) {
			return
		}
		x.Work(20) // backoff
	}
}

// SpinUnlock releases a spinlock acquired with SpinLock.
func (x *Ctx) SpinUnlock(addr uint64) { x.Store64(addr, 0) }
