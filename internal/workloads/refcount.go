package workloads

import (
	"fmt"

	"repro/internal/sim"
)

// RefImpl selects the reference-counting implementation (Sec 5.4).
type RefImpl uint8

const (
	// RefPlain uses one shared counter per object, updated with
	// commutative adds: atomic XADD under MESI, COUP's commutative-add
	// under MEUSI. Decrements read the counter to detect zero.
	RefPlain RefImpl = iota
	// RefSNZI uses Scalable Non-Zero Indicator trees (Ellen et al., PODC
	// 2007): per-object binary trees of counters where threads update
	// leaves and propagate only zero/non-zero transitions, and readers
	// check the root.
	RefSNZI
)

func (i RefImpl) String() string {
	if i == RefSNZI {
		return "snzi"
	}
	return "plain"
}

// RefCount is the immediate-deallocation microbenchmark (Fig 13a/b): each
// thread performs a fixed number of increment or decrement-and-read
// operations over a fixed set of shared reference counters. In low-count
// mode each thread keeps 0 or 1 references per object; in high-count mode
// up to five, with the paper's increment probabilities (1.0, 0.7, 0.5, 0.5,
// 0.3, 0.0 for 0–5 held references).
type RefCount struct {
	Counters         int
	UpdatesPerThread int
	HighCount        bool
	Impl             RefImpl
	Seed             uint64

	ctrAddr  uint64 // one counter per line (objects are line-sized)
	treeAddr uint64 // SNZI: per-object trees, one node per line
	treeSize int    // nodes per tree
	leaves   int

	// outstanding[tid][k] is maintained Go-side during the run (it models
	// the references the thread holds in registers/stack) and summed during
	// validation.
	outstanding [][]int8
	zeroSeen    []uint64 // per-thread count of zero observations (keeps reads live)
}

// NewRefCount builds an immediate-deallocation instance.
func NewRefCount(counters, updates int, high bool, impl RefImpl, seed uint64) *RefCount {
	return &RefCount{Counters: counters, UpdatesPerThread: updates, HighCount: high, Impl: impl, Seed: seed}
}

// Name implements Workload.
func (r *RefCount) Name() string {
	mode := "low"
	if r.HighCount {
		mode = "high"
	}
	return fmt.Sprintf("refcount-%s-%s", r.Impl, mode)
}

// Setup implements Workload.
func (r *RefCount) Setup(m *sim.Machine) {
	n := m.Config().Cores
	r.outstanding = make([][]int8, n)
	for i := range r.outstanding {
		r.outstanding[i] = make([]int8, r.Counters)
	}
	r.zeroSeen = make([]uint64, n)
	r.ctrAddr = m.Alloc(uint64(r.Counters)*64, 64)
	if r.Impl == RefSNZI {
		// Complete binary tree with one leaf per thread: threads arrive and
		// depart at their own leaf; transitions propagate toward the root.
		r.leaves = 1
		for r.leaves < n {
			r.leaves *= 2
		}
		r.treeSize = 2*r.leaves - 1
		r.treeAddr = m.Alloc(uint64(r.Counters)*uint64(r.treeSize)*64, 64)
	}
}

func (r *RefCount) counter(k int) uint64 { return r.ctrAddr + uint64(k)*64 }

func (r *RefCount) node(k, i int) uint64 {
	return r.treeAddr + (uint64(k)*uint64(r.treeSize)+uint64(i))*64
}

// snziArrive increments node i of object k's tree, propagating the 0→1
// surplus transition to the parent.
func (r *RefCount) snziArrive(c *sim.Ctx, k, i int) {
	for {
		v := c.Load64(r.node(k, i))
		c.Work(3)
		if c.CAS64(r.node(k, i), v, v+1) {
			if v == 0 && i != 0 {
				r.snziArrive(c, k, (i-1)/2)
			}
			return
		}
		c.Work(10) // contention backoff
	}
}

// snziDepart decrements node i, propagating 1→0 to the parent.
func (r *RefCount) snziDepart(c *sim.Ctx, k, i int) {
	for {
		v := c.Load64(r.node(k, i))
		c.Work(3)
		if c.CAS64(r.node(k, i), v, v-1) {
			if v == 1 && i != 0 {
				r.snziDepart(c, k, (i-1)/2)
			}
			return
		}
		c.Work(10)
	}
}

// Kernel implements Workload.
func (r *RefCount) Kernel(c *sim.Ctx) {
	tid := c.Tid()
	held := r.outstanding[tid]
	leaf := r.treeSize - r.leaves + (tid % max(r.leaves, 1))
	for u := 0; u < r.UpdatesPerThread; u++ {
		k := int(c.RandN(uint64(r.Counters)))
		inc := r.decide(c, held[k])
		c.Work(6) // object selection, branch
		if r.Impl == RefSNZI {
			if inc {
				r.snziArrive(c, k, leaf)
				held[k]++
			} else {
				r.snziDepart(c, k, leaf)
				held[k]--
				// Non-zero check at the root only (SNZI's fast read).
				if c.Load64(r.node(k, 0)) == 0 {
					r.zeroSeen[tid]++
				}
			}
			continue
		}
		if inc {
			c.CommAdd64(r.counter(k), 1)
			held[k]++
		} else {
			c.CommAdd64(r.counter(k), ^uint64(0)) // -1
			held[k]--
			if c.Load64(r.counter(k)) == 0 {
				r.zeroSeen[tid]++
			}
		}
	}
}

// decide picks increment vs decrement under the paper's reference-holding
// rules.
func (r *RefCount) decide(c *sim.Ctx, held int8) bool {
	if !r.HighCount {
		// Low count: increment iff no reference held.
		return held == 0
	}
	// High count: probabilistic, capped at 5 references.
	probs := [6]uint64{100, 70, 50, 50, 30, 0} // percent, indexed by held
	h := held
	if h < 0 {
		h = 0
	}
	if h > 5 {
		h = 5
	}
	return c.RandN(100) < probs[h]
}

// Validate implements Workload.
func (r *RefCount) Validate(m *sim.Machine) error {
	for k := 0; k < r.Counters; k++ {
		var want int64
		for _, held := range r.outstanding {
			want += int64(held[k])
		}
		if r.Impl == RefSNZI {
			// Leaf sum must equal outstanding references, and the root must
			// be non-zero iff any are outstanding.
			var sum int64
			for l := 0; l < r.leaves; l++ {
				sum += int64(m.ReadWord64(r.node(k, r.treeSize-r.leaves+l)))
			}
			if sum != want {
				return fmt.Errorf("object %d: leaf sum %d, want %d", k, sum, want)
			}
			root := m.ReadWord64(r.node(k, 0))
			if (root != 0) != (want != 0) {
				return fmt.Errorf("object %d: root %d but outstanding %d", k, root, want)
			}
			continue
		}
		if got := int64(m.ReadWord64(r.counter(k))); got != want {
			return fmt.Errorf("counter %d: got %d, want %d", k, got, want)
		}
	}
	return nil
}

// DelayedImpl selects the delayed-deallocation implementation (Fig 13c).
type DelayedImpl uint8

const (
	// DelayedCoup maintains shared counters updated with commutative adds
	// plus a shared "modified" bitmap updated with commutative ors; between
	// epochs, cores read marked counters with ordinary loads (Sec 5.4).
	DelayedCoup DelayedImpl = iota
	// DelayedRefcache models Refcache (Clements et al., EuroSys 2013):
	// per-thread software caches (hash tables) of counter deltas, flushed
	// to the global counters with atomic adds at epoch ends.
	DelayedRefcache
)

func (i DelayedImpl) String() string {
	if i == DelayedRefcache {
		return "refcache"
	}
	return "coup"
}

// RefCountDelayed is the delayed-deallocation microbenchmark: threads
// perform increments and decrements (never reads) during an epoch, then
// epoch-end bookkeeping detects zero counters.
type RefCountDelayed struct {
	Counters        int
	Epochs          int
	UpdatesPerEpoch int
	Impl            DelayedImpl
	Seed            uint64

	ctrAddr    uint64 // packed counters, 8 per line (no padding: footprint matters)
	bitmapAddr uint64 // modified bitmap (COUP variant)
	tableAddr  uint64 // per-thread hash tables (Refcache variant)
	tableSlots int    // slots per thread table (power of two)

	deltas   [][]int64 // Go-side per-thread net deltas for validation
	zeroSeen []uint64
}

// NewRefCountDelayed builds a delayed-deallocation instance.
func NewRefCountDelayed(counters, epochs, updatesPerEpoch int, impl DelayedImpl, seed uint64) *RefCountDelayed {
	return &RefCountDelayed{
		Counters: counters, Epochs: epochs, UpdatesPerEpoch: updatesPerEpoch,
		Impl: impl, Seed: seed,
	}
}

// Name implements Workload.
func (r *RefCountDelayed) Name() string { return "refcount-delayed-" + r.Impl.String() }

// Setup implements Workload.
func (r *RefCountDelayed) Setup(m *sim.Machine) {
	n := m.Config().Cores
	r.deltas = make([][]int64, n)
	for i := range r.deltas {
		r.deltas[i] = make([]int64, r.Counters)
	}
	r.zeroSeen = make([]uint64, n)
	r.ctrAddr = m.Alloc(uint64(r.Counters)*8, 64)
	words := uint64(r.Counters+63) / 64
	r.bitmapAddr = m.Alloc(words*8, 64)
	if r.Impl == DelayedRefcache {
		r.tableSlots = 256
		for r.tableSlots < 2*r.UpdatesPerEpoch && r.tableSlots < 4096 {
			r.tableSlots *= 2
		}
		// Two words per slot: key (counter index + 1) and delta.
		r.tableAddr = m.Alloc(uint64(n)*uint64(r.tableSlots)*16, 64)
	}
}

func (r *RefCountDelayed) table(tid, slot int) uint64 {
	return r.tableAddr + (uint64(tid)*uint64(r.tableSlots)+uint64(slot))*16
}

// Kernel implements Workload.
func (r *RefCountDelayed) Kernel(c *sim.Ctx) {
	tid := c.Tid()
	for ep := 0; ep < r.Epochs; ep++ {
		for u := 0; u < r.UpdatesPerEpoch; u++ {
			k := int(c.RandN(uint64(r.Counters)))
			delta := int64(1)
			if c.RandN(2) == 0 {
				delta = -1
			}
			r.deltas[tid][k] += delta
			c.Work(6)
			switch r.Impl {
			case DelayedCoup:
				c.CommAdd64(r.ctrAddr+uint64(k)*8, uint64(delta))
				c.CommOr64(r.bitmapAddr+uint64(k/64)*8, 1<<uint(k%64))
			case DelayedRefcache:
				r.refcacheUpdate(c, tid, k, delta)
			}
		}
		c.Barrier()
		switch r.Impl {
		case DelayedCoup:
			r.coupEpochScan(c, tid)
		case DelayedRefcache:
			r.refcacheFlush(c, tid)
		}
		c.Barrier()
	}
}

// refcacheUpdate buffers a delta in the thread's software cache, evicting
// (flushing) a colliding entry if the probe window is full.
func (r *RefCountDelayed) refcacheUpdate(c *sim.Ctx, tid, k int, delta int64) {
	key := uint64(k + 1)
	h := (uint64(k) * 0x9E3779B97F4A7C15) >> 40 % uint64(r.tableSlots)
	c.Work(5) // hashing
	const probe = 4
	for i := 0; i < probe; i++ {
		slot := (int(h) + i) % r.tableSlots
		sk := c.Load64(r.table(tid, slot))
		if sk == key {
			d := c.Load64(r.table(tid, slot) + 8)
			c.Store64(r.table(tid, slot)+8, uint64(int64(d)+delta))
			return
		}
		if sk == 0 {
			c.Store64(r.table(tid, slot), key)
			c.Store64(r.table(tid, slot)+8, uint64(delta))
			return
		}
	}
	// Probe window full: evict the first entry to the global counter.
	slot := int(h)
	ek := c.Load64(r.table(tid, slot))
	ed := c.Load64(r.table(tid, slot) + 8)
	if ed != 0 {
		c.AtomicAdd64(r.ctrAddr+(ek-1)*8, ed)
	}
	c.CommOr64(r.bitmapAddr+uint64((ek-1)/64)*8, 1<<uint((ek-1)%64))
	c.Store64(r.table(tid, slot), key)
	c.Store64(r.table(tid, slot)+8, uint64(delta))
}

// refcacheFlush drains the thread's cache into the global counters and
// checks flushed counters for zero.
func (r *RefCountDelayed) refcacheFlush(c *sim.Ctx, tid int) {
	for slot := 0; slot < r.tableSlots; slot++ {
		key := c.Load64(r.table(tid, slot))
		if key == 0 {
			continue
		}
		d := c.Load64(r.table(tid, slot) + 8)
		if d != 0 {
			c.AtomicAdd64(r.ctrAddr+(key-1)*8, d)
		}
		c.Store64(r.table(tid, slot), 0)
		c.Store64(r.table(tid, slot)+8, 0)
		if c.Load64(r.ctrAddr+(key-1)*8) == 0 {
			r.zeroSeen[tid]++
		}
		c.Work(4)
	}
}

// coupEpochScan reads this thread's shard of the modified bitmap with
// ordinary loads, checks marked counters for zero, and clears the shard.
func (r *RefCountDelayed) coupEpochScan(c *sim.Ctx, tid int) {
	words := (r.Counters + 63) / 64
	lo, hi := chunk(words, tid, c.NThreads())
	for w := lo; w < hi; w++ {
		m := c.Load64(r.bitmapAddr + uint64(w)*8)
		if m == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if m&(1<<uint(b)) == 0 {
				continue
			}
			k := w*64 + b
			if k >= r.Counters {
				break
			}
			if c.Load64(r.ctrAddr+uint64(k)*8) == 0 {
				r.zeroSeen[tid]++
			}
			c.Work(2)
		}
		c.Store64(r.bitmapAddr+uint64(w)*8, 0)
	}
}

// Validate implements Workload.
func (r *RefCountDelayed) Validate(m *sim.Machine) error {
	for k := 0; k < r.Counters; k++ {
		var want int64
		for _, d := range r.deltas {
			want += d[k]
		}
		if got := int64(m.ReadWord64(r.ctrAddr + uint64(k)*8)); got != want {
			return fmt.Errorf("counter %d: got %d, want %d", k, got, want)
		}
	}
	return nil
}

func refcountFactory(impl RefImpl) Factory {
	return func(p Params) (Workload, error) {
		counters, err := p.def(p.Counters, 1024)
		if err != nil {
			return nil, err
		}
		updates, err := p.def(p.Size, 2000)
		if err != nil {
			return nil, err
		}
		return NewRefCount(counters, updates, p.HighCount, impl, p.seed(21)), nil
	}
}

func delayedFactory(impl DelayedImpl) Factory {
	return func(p Params) (Workload, error) {
		counters, err := p.def(p.Counters, 8192)
		if err != nil {
			return nil, err
		}
		epochs, err := p.def(p.Iters, 2)
		if err != nil {
			return nil, err
		}
		upe, err := p.def(p.UpdatesPerEpoch, 300)
		if err != nil {
			return nil, err
		}
		return NewRefCountDelayed(counters, epochs, upe, impl, p.seed(27)), nil
	}
}

func init() {
	mustRegister("refcount",
		"shared reference counters, immediate dealloc, plain counters (Sec 5.4, Fig 13a/b; Counters, Size=updates/thread, HighCount, Seed)",
		refcountFactory(RefPlain))
	mustRegister("refcount-snzi",
		"reference counting via SNZI trees (Sec 5.4 software baseline; Counters, Size=updates/thread, HighCount, Seed)",
		refcountFactory(RefSNZI))
	mustRegister("counter",
		"one maximally-contended shared counter (Fig 1; Size=updates/thread, Seed)",
		func(p Params) (Workload, error) {
			updates, err := p.def(p.Size, 2000)
			if err != nil {
				return nil, err
			}
			return NewRefCount(1, updates, true, RefPlain, p.seed(3)), nil
		})
	mustRegister("refcount-delayed",
		"delayed deallocation with COUP counters + modified bitmap (Sec 5.4, Fig 13c; Counters, Iters=epochs, UpdatesPerEpoch, Seed)",
		delayedFactory(DelayedCoup))
	mustRegister("refcount-refcache",
		"delayed deallocation via Refcache per-thread delta caches (Sec 5.4 software baseline; Counters, Iters=epochs, UpdatesPerEpoch, Seed)",
		delayedFactory(DelayedRefcache))
}
