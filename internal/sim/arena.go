package sim

// Arena pools machine-sized scratch across Machine constructions, so a
// sweep of many small simulations (the fig2 protocol sweep, the fig13
// refcount grids) builds each distinct machine geometry once and then
// recycles it, instead of re-allocating cache arrays, directory pages,
// backing-store pages and bank tables for every spec.
//
// # Reset contract
//
// Machines are pooled whole, keyed by their geometry (machineShape): core
// counts and every cache/bank/channel dimension. Everything else in a
// Config — protocol, latencies, seed, jitter, flat-reductions — is run
// state, re-derived when a pooled machine is taken. Reuse is
// zero-on-reuse: NewIn resets the recycled machine to exactly the state
// New would have produced, with two deliberate exceptions that are
// invisible to simulation results:
//
//   - lazily allocated array pages, backing-store pages and grown bank
//     tables stay allocated (that is the point — their contents are
//     cleared, their capacity is kept), and
//   - the partial-update buffer pools keep their high-water population.
//
// Neither affects timing or statistics: an allocated-but-empty page
// behaves identically to an unallocated one, and table capacity never
// changes lookup results. TestArenaReuseIdentical pins this: stats from a
// recycled machine are byte-identical to a fresh machine's.
//
// An Arena is NOT safe for concurrent use. The intended pattern — used by
// pkg/coup's sweep engine — is one Arena per worker goroutine, living for
// the duration of the sweep. Dropping the Arena releases everything it
// holds to the garbage collector.
type Arena struct {
	free   map[machineShape][]*Machine
	pooled int // machines currently held across all shapes
	// Pool effectiveness counters, read via PoolStats. Plain words: an
	// Arena is single-worker by contract, so these need no atomics; the
	// sweep layer reduces per-worker deltas into shared metrics.
	warm uint64 // NewIn calls served from the pool
	cold uint64 // NewIn calls that built a fresh machine
}

// NewArena returns an empty machine arena.
func NewArena() *Arena {
	return &Arena{free: map[machineShape][]*Machine{}}
}

// PoolStats reports how many NewIn calls this arena served from its pool
// (warm) versus by building a fresh machine (cold). Monotonic over the
// arena's lifetime.
func (a *Arena) PoolStats() (warm, cold uint64) { return a.warm, a.cold }

// Pooled reports how many released machines the arena currently holds.
func (a *Arena) Pooled() int { return a.pooled }

// machineShape is the geometry key under which an Arena pools machines:
// every Config field that determines allocation sizes. Two configs with
// equal shapes build structurally identical machines.
type machineShape struct {
	cores, coresPerChip     int
	l1Size, l1Ways          int
	l2Size, l2Ways          int
	l3Size, l3Ways, l3Banks int
	l4Size, l4Ways, l4Banks int
	memChannels             int
}

func shapeOf(cfg *Config) machineShape {
	return machineShape{
		cores: cfg.Cores, coresPerChip: cfg.CoresPerChip,
		l1Size: cfg.L1Size, l1Ways: cfg.L1Ways,
		l2Size: cfg.L2Size, l2Ways: cfg.L2Ways,
		l3Size: cfg.L3Size, l3Ways: cfg.L3Ways, l3Banks: cfg.L3Banks,
		l4Size: cfg.L4Size, l4Ways: cfg.L4Ways, l4Banks: cfg.L4Banks,
		memChannels: cfg.MemChannels,
	}
}

// NewIn builds a machine for cfg like New, but recycles a pooled machine
// of the same geometry from a when one is available. A nil arena is
// allowed and makes NewIn identical to New. Machines built by NewIn
// return their scratch to a via Release.
func NewIn(a *Arena, cfg Config) *Machine {
	if a == nil {
		return New(cfg)
	}
	shape := shapeOf(&cfg)
	if list := a.free[shape]; len(list) > 0 {
		a.warm++
		a.pooled--
		m := list[len(list)-1]
		list[len(list)-1] = nil
		a.free[shape] = list[:len(list)-1]
		m.reset(cfg)
		return m
	}
	a.cold++
	m := New(cfg)
	m.arena = a
	m.shape = shape
	return m
}

// Release returns the machine's scratch to the arena it was built in, to
// be recycled by a later NewIn of the same geometry. The machine must not
// be used afterwards. Release on a machine built by New (or with a nil
// arena) is a no-op; releasing twice is a programming error and panics.
func (m *Machine) Release() {
	if m.arena == nil {
		return
	}
	if m.released {
		panic("sim: Machine.Release called twice")
	}
	m.released = true
	a := m.arena
	a.free[m.shape] = append(a.free[m.shape], m)
	a.pooled++
}

// reset returns a pooled machine to the state New(cfg) would produce,
// given that cfg's shape matches the machine's. See the Arena doc for the
// (result-invisible) capacity exceptions.
func (m *Machine) reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m.cfg = cfg
	m.stats = Stats{}
	m.allocPtr = 1 << 20
	m.ran = false
	m.released = false
	m.raH = 0
	m.commNative = cfg.Protocol.commNative()
	clear(m.frozen)
	m.frozen = m.frozen[:0]
	m.eng = EngineCounters{}
	for i, c := range m.cores {
		c.time = 0
		c.req = request{}
		c.rng = newRNG(cfg.Seed*0x9E3779B97F4A7C15 + uint64(i) + 1)
		c.instrs = 0
		c.yield = nil
		c.next = nil
		c.stop = nil
		c.qh, c.qn, c.qcap, c.gap = 0, 0, postCap, 0
	}
	m.hier.reset(&m.cfg, &m.stats)
}

// reset rebinds the hierarchy to a new run's config and stats and clears
// all simulation state, keeping every allocation.
func (h *hierarchy) reset(cfg *Config, st *Stats) {
	h.cfg, h.st = cfg, st
	h.hasE = cfg.Protocol.hasE()
	h.remote = cfg.Protocol.Remote()
	h.jrng = newRNG(cfg.Seed ^ 0xC0FFEE)
	h.now = 0
	h.store.reset()
	for _, pc := range h.priv {
		// Harvest the partial-update buffers of still-resident U lines into
		// the pool before their lines are wiped, so buffers survive reuse.
		pc.l2.forEach(func(_ uint64, p *privLine) {
			if p.buf != nil {
				pc.bufPool = append(pc.bufPool, p.buf)
				p.buf = nil
			}
		})
		pc.l1.reset()
		pc.l2.reset()
	}
	for _, ch := range h.chips {
		ch.arr.reset()
		for _, b := range ch.banks {
			b.reset()
		}
	}
	h.l4.arr.reset()
	for _, b := range h.l4.banks {
		b.reset()
	}
	clear(h.l4.chans)
}

// reset clears a bank's occupancy state, keeping the line table's grown
// capacity.
func (b *bank) reset() {
	b.busyUntil = 0
	b.redBusy = 0
	b.lineBusy.reset()
}

// reset empties the table in place, keeping capacity.
func (t *busyTable) reset() {
	clear(t.keys)
	clear(t.vals)
	t.n = 0
	t.gen++
}

// reset zeroes every materialized page, keeping them mapped for reuse.
func (b *backing) reset() {
	for _, pg := range b.pages {
		if pg != nil {
			*pg = backingPage{}
		}
	}
}
