package sim

import "math/bits"

// array is a set-associative cache array with LRU replacement, generic over
// the per-line payload (private-cache coherence state, or directory state at
// the shared levels).
//
// Layout is structure-of-arrays, paged: each page covers a power-of-two run
// of sets and stores tags, LRU stamps and payloads in three parallel flat
// slices. A lookup therefore scans only the 8 tag words of a set (one or
// two cache lines) instead of dragging every way's full slot through the
// cache, and a set access is two masks, a shift and a bounds-checked index.
// Small geometries (every L1/L2, and the shrunk shared caches tests use)
// are pre-sized as a single page, so their page-miss branch is never taken;
// full-size Table 1 L3/L4 geometries allocate pages lazily, costing memory
// only for the regions a workload touches.
type array[P any] struct {
	ways       int
	setMask    uint64
	setBits    uint   // log2(sets); tag = line >> setBits
	pageShift  uint   // log2(sets per page)
	pageSeMask uint64 // sets-per-page - 1
	tick       uint64 // LRU clock
	pages      []arrayPage[P]
	// touched has one bit per set, raised by every fill (insert, commit)
	// and cleared only by reset. A set whose bit is clear holds no valid
	// way, so reset and forEach cost what a run touched, not what the
	// geometry holds.
	touched []uint64
}

// arrayPage holds one page's slots as parallel slices. A tag word is the
// line address with the set-index bits stripped (hardware-style) plus
// validBit; zero means empty, and the payload of an empty way is always
// the zero value. 32-bit tags keep a whole 16-way set's tags in a single
// cache line; they are exact because simulated physical addresses are
// bounded (Machine.Alloc caps the address space at 2^36 bytes, so
// line >> setBits always fits 31 bits).
type arrayPage[P any] struct {
	tags []uint32
	lru  []uint64
	pay  []P
}

// validBit marks an occupied way inside a tag word.
const validBit = 1 << 31

// eagerSlots bounds the geometries (sets × ways) that are pre-sized as a
// single page at construction. 4096 slots covers a Table-1 L2 (512 sets ×
// 8 ways); the 32 MB L3 and 128 MB L4 page lazily.
const eagerSlots = 4096

// lazyPageSlots is the target page size (in slots) for lazily paged
// geometries: big enough to amortize allocation, small enough that sparse
// footprints do not overcommit.
const lazyPageSlots = 1024

// newArray builds an array holding sizeBytes of 64-byte lines with the
// given associativity. The set count is rounded down to a power of two.
func newArray[P any](sizeBytes, ways int) *array[P] {
	lines := sizeBytes / 64
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for mask indexing.
	p2 := 1
	for p2*2 <= sets {
		p2 *= 2
	}
	a := &array[P]{ways: ways, setMask: uint64(p2 - 1), setBits: uint(bits.TrailingZeros(uint(p2)))}
	pageSets := p2
	if p2*ways > eagerSlots {
		pageSets = 1
		for pageSets*2*ways <= lazyPageSlots && pageSets*2 <= p2 {
			pageSets *= 2
		}
	}
	a.pageShift = uint(bits.TrailingZeros(uint(pageSets)))
	a.pageSeMask = uint64(pageSets - 1)
	a.pages = make([]arrayPage[P], p2/pageSets)
	a.touched = make([]uint64, (p2+63)/64)
	if pageSets == p2 {
		a.allocPage(0)
	}
	return a
}

// setAt returns the page and intra-page slot offset of line's set.
func (a *array[P]) setAt(line uint64) (*arrayPage[P], uint64) {
	i := line & a.setMask
	pg := &a.pages[i>>a.pageShift]
	if pg.tags == nil {
		a.allocPage(i >> a.pageShift)
	}
	return pg, (i & a.pageSeMask) * uint64(a.ways)
}

// allocPage is the cold path of setAt: lazy page allocation for large
// geometries.
//
//go:noinline
func (a *array[P]) allocPage(pi uint64) {
	n := (a.pageSeMask + 1) * uint64(a.ways)
	a.pages[pi] = arrayPage[P]{tags: make([]uint32, n), lru: make([]uint64, n), pay: make([]P, n)}
}

// peek returns the payload of the way holding line without touching LRU
// state.
func (a *array[P]) peek(line uint64) *P {
	pg, base := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	tags := pg.tags[base : base+uint64(a.ways)]
	for w := range tags {
		if tags[w] == key {
			return &pg.pay[base+uint64(w)]
		}
	}
	return nil
}

// insert allocates a way for line, evicting the LRU way if the set is
// full. It returns the new way's payload (zero value) and way index, plus
// the victim's tag and payload if an eviction occurred. The caller must
// not insert a line that is already present.
func (a *array[P]) insert(line uint64) (p *P, victimTag uint64, victim P, evicted bool, way uint8) {
	pg, base := a.setAt(line)
	vi, vlru := -1, ^uint64(0)
	for w := 0; w < a.ways; w++ {
		t := pg.tags[base+uint64(w)]
		if t&validBit == 0 {
			vi = w
			evicted = false
			break
		}
		if s := pg.lru[base+uint64(w)]; s < vlru {
			vi, vlru = w, s
			evicted = true
		}
	}
	i := base + uint64(vi)
	if evicted {
		victimTag = uint64(pg.tags[i]&^validBit)<<a.setBits | (line & a.setMask)
		victim = pg.pay[i]
	}
	a.tick++
	var zero P
	pg.tags[i] = uint32(line>>a.setBits) | validBit
	pg.lru[i] = a.tick
	pg.pay[i] = zero
	a.mark(line)
	return &pg.pay[i], victimTag, victim, evicted, uint8(vi)
}

// mark records that line's set holds a valid way.
func (a *array[P]) mark(line uint64) {
	s := line & a.setMask
	a.touched[s>>6] |= 1 << (s & 63)
}

// invalidate removes line from the array if present. The tick bump marks
// the mutation so outstanding slot handles (see probe) notice the set may
// have changed; it never reorders LRU decisions, because stored stamps are
// untouched and future stamps only grow.
func (a *array[P]) invalidate(line uint64) {
	pg, base := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	for w := 0; w < a.ways; w++ {
		if pg.tags[base+uint64(w)] == key {
			var zero P
			pg.tags[base+uint64(w)] = 0
			pg.lru[base+uint64(w)] = 0
			pg.pay[base+uint64(w)] = zero
			a.tick++
			return
		}
	}
}

// slotRef is a handle to one way of an array, captured by probe or
// peekSlot and consumed together with the same line address. It stays
// valid — the payload pointer and the staged victim choice remain exact —
// until the array's tick changes (any hit, insert or invalidate);
// consumers re-check the tick and fall back to a fresh scan when it
// moved, so a stale handle can never change behaviour, only cost.
//
// The handle is one packed word so the hot paths that produce one but
// rarely use it (every private-cache probe) pay a single register, not a
// struct spill: [tick:32][slot:16][way:8][flags:8]. Slot indices fit 16
// bits because pages hold at most eagerSlots (4096) slots; the truncated
// tick is compared for equality only, and wrapping exactly 2^32 ticks
// inside one directory transaction is impossible.
type slotRef = uint64

const (
	slotHit   = 1 << 0 // the handle names line's own way
	slotEvict = 1 << 1 // staged miss in a full set: way holds the LRU victim
)

func packSlot(tick, idx uint64, way uint8, flags uint8) slotRef {
	return uint64(uint32(tick))<<32 | idx<<16 | uint64(way)<<8 | uint64(flags)
}

func (a *array[P]) slotCurrent(h slotRef) bool { return uint32(h>>32) == uint32(a.tick) }

func slotIdx(h slotRef) uint64 { return (h >> 16) & 0xFFFF }

// slotWay returns the way index recorded in a probe/peekSlot handle.
func slotWay(h slotRef) uint8 { return uint8(h >> 8) }

// wayUnknown marks a hint whose way index was not tracked; any
// out-of-range way simply fails peekAt's tag check, so unknown hints are
// safe everywhere a hint is.
const wayUnknown = ^uint8(0)

// probe scans line's set once, fusing the hit test with the victim choice
// insert would otherwise rescan for. On a hit it touches the way's LRU
// stamp and returns the payload plus a handle to the hit way; on a miss
// it returns nil plus a handle staging the insertion — the way a fresh
// insert would choose — which commit turns into the actual insert without
// rescanning the tags. The hit path pays only a first-empty-way test over
// a plain tag scan; LRU stamps are consulted only for a miss in a full
// set, where insert would have read them anyway.
func (a *array[P]) probe(line uint64) (*P, slotRef) {
	pg, base := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	tags := pg.tags[base : base+uint64(a.ways)]
	empty := -1
	for w := range tags {
		t := tags[w]
		if t == key {
			i := base + uint64(w)
			a.tick++
			pg.lru[i] = a.tick
			return &pg.pay[i], packSlot(a.tick, i, uint8(w), slotHit)
		}
		if empty < 0 && t&validBit == 0 {
			empty = w
		}
	}
	if empty >= 0 {
		return nil, packSlot(a.tick, base+uint64(empty), uint8(empty), 0)
	}
	// Full set: pick the LRU way, exactly as insert would.
	lru := pg.lru[base : base+uint64(a.ways)]
	vi, vlru := 0, lru[0]
	for w := 1; w < len(lru); w++ {
		if s := lru[w]; s < vlru {
			vi, vlru = w, s
		}
	}
	return nil, packSlot(a.tick, base+uint64(vi), uint8(vi), slotEvict)
}

// commit completes the insertion staged by a missing probe of line. While
// the array is untouched since the probe (the common case) it fills the
// staged way directly; otherwise it falls back to a full insert, so the
// result is always identical to calling insert fresh.
func (a *array[P]) commit(line uint64, h slotRef) (p *P, victimTag uint64, victim P, evicted bool, way uint8) {
	if h&slotHit != 0 || !a.slotCurrent(h) {
		return a.insert(line)
	}
	pg, _ := a.setAt(line)
	i := slotIdx(h)
	if h&slotEvict != 0 {
		victimTag = uint64(pg.tags[i]&^validBit)<<a.setBits | (line & a.setMask)
		victim = pg.pay[i]
		evicted = true
	}
	a.tick++
	var zero P
	pg.tags[i] = uint32(line>>a.setBits) | validBit
	pg.lru[i] = a.tick
	pg.pay[i] = zero
	a.mark(line)
	return &pg.pay[i], victimTag, victim, evicted, slotWay(h)
}

// revalidate re-derives the payload pointer of a hit handle for line:
// nearly free while the array is untouched, one peek otherwise.
// Missing-probe handles (and lines invalidated since) return nil, like
// peek.
func (a *array[P]) revalidate(line uint64, h slotRef) *P {
	if h&slotHit != 0 && a.slotCurrent(h) {
		pg, _ := a.setAt(line)
		return &pg.pay[slotIdx(h)]
	}
	return a.peek(line)
}

// peekAt returns the payload of the way holding line when the hinted way
// index still does, falling back to a full peek otherwise. Hints are
// best-effort: the tag comparison validates them exactly (a set holds at
// most one way per line), so stale or unknown hints cost one extra scan
// and can never change the result.
func (a *array[P]) peekAt(line uint64, way uint8) *P {
	if uint64(way) < uint64(a.ways) {
		pg, base := a.setAt(line)
		i := base + uint64(way)
		if pg.tags[i] == uint32(line>>a.setBits)|validBit {
			return &pg.pay[i]
		}
	}
	return a.peek(line)
}

// peekSlot is peek returning a handle to the hit way, so a following
// invalidateAt avoids rescanning the set.
func (a *array[P]) peekSlot(line uint64) (*P, slotRef) {
	pg, base := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	tags := pg.tags[base : base+uint64(a.ways)]
	for w := range tags {
		if tags[w] == key {
			i := base + uint64(w)
			return &pg.pay[i], packSlot(a.tick, i, uint8(w), slotHit)
		}
	}
	return nil, 0
}

// invalidateAt removes line, which the handle points at, without
// rescanning the set while the handle is still current.
func (a *array[P]) invalidateAt(line uint64, h slotRef) {
	if h&slotHit == 0 {
		return
	}
	if !a.slotCurrent(h) {
		a.invalidate(line)
		return
	}
	pg, _ := a.setAt(line)
	i := slotIdx(h)
	var zero P
	pg.tags[i] = 0
	pg.lru[i] = 0
	pg.pay[i] = zero
	a.tick++
}

// reset returns the array to its post-newArray state while keeping every
// allocated page for reuse (the arena's zero-on-reuse contract). Only the
// sets marked in touched can hold a valid way, and within them only
// occupied ways need clearing: insert and invalidate maintain the
// invariant that an empty way's tag, LRU stamp and payload are all zero.
// visit, when non-nil, sees each valid way's payload just before the way
// is cleared, in forEach's order.
func (a *array[P]) reset(visit func(p *P)) {
	var zero P
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			_, pg, base := a.markedSet(wi, w)
			for i := base; i < base+uint64(a.ways); i++ {
				if pg.tags[i] != 0 {
					if visit != nil {
						visit(&pg.pay[i])
					}
					pg.tags[i] = 0
					pg.lru[i] = 0
					pg.pay[i] = zero
				}
			}
		}
		a.touched[wi] = 0
	}
	a.tick = 0
}

// forEach visits every valid way, in set-major order: ascending set
// index, then ascending way. Only marked sets are read. Used by drain and
// by invariant checks; f must not fill the array it walks.
func (a *array[P]) forEach(f func(tag uint64, p *P)) {
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			set, pg, base := a.markedSet(wi, w)
			for i := base; i < base+uint64(a.ways); i++ {
				if t := pg.tags[i]; t&validBit != 0 {
					f(uint64(t&^validBit)<<a.setBits|set, &pg.pay[i])
				}
			}
		}
	}
}

// markedSet returns the lowest set still marked in touched word wi (w
// holds the word's bits not yet visited), with its page and the set's
// slot offset in that page.
func (a *array[P]) markedSet(wi int, w uint64) (set uint64, pg *arrayPage[P], base uint64) {
	set = uint64(wi)<<6 | uint64(bits.TrailingZeros64(w))
	return set, &a.pages[set>>a.pageShift], (set & a.pageSeMask) * uint64(a.ways)
}
