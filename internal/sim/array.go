package sim

import (
	"math"
	"math/bits"
)

// array is a set-associative cache array with LRU replacement, generic over
// the per-line payload (private-cache coherence state, or directory state at
// the shared levels).
//
// Each way is one word packing its tag and LRU stamp, plus a payload, kept
// in two parallel slices of an arrayPage with a set's ways contiguous. A
// lookup therefore scans only a set's way words, an 8-way set's in one
// 64-byte host line, instead of dragging every way's payload through the
// cache. Each peek, probe, insert and invalidate scans line's set once,
// and no way index outlives the call. No payload type holds a pointer
// (TestSlotBudget checks), so the garbage collector never scans an array's
// slots. There are two layouts:
//
//   - Dense, for small geometries (every L1/L2, and the shrunk shared
//     caches tests use): one page per 64 sets (one word of touched) holds
//     those sets at full associativity, allocated on the page's first
//     fill. A lookup in a page not yet allocated misses, as in a sparse
//     set without a block. The contended runs fill one of a Table-1 L2's
//     eight pages, so a private cache costs memory for the pages its core
//     touches rather than for its capacity.
//   - Sparse, for the full-size Table-1 L3 and L4: each set owns a block
//     sized to the most ways it has held at once (1, 2, 4, … up to the
//     associativity), cut from fixed-size chunks that never move. A header
//     group per 64 sets, allocated on the group's first fill, locates each
//     set's block. A fill into a full block of a set below its
//     associativity doubles the block; every way keeps its position, and
//     the old block goes to a free list for its size. The shared levels
//     are nearly empty in every workload (almost every filled set holds
//     one or two ways), so they cost memory, and a lookup costs tag
//     compares, only for the ways sets actually hold.
//
// Both layouts choose the same ways. A fill takes the lowest empty way, so
// a set's valid ways always lie below the most it has held, which its
// block covers: the block's lowest empty way, or else the first way past
// the block, is the way a full-width set would take. A victim is chosen
// only once every way is valid, from the same LRU stamps.
type array[P any] struct {
	ways    int
	setMask uint64
	setBits uint   // log2(sets); tag = line >> setBits
	tick    uint32 // LRU clock, advanced only by step
	// pages holds a dense array's slots: page g holds sets 64g…64g+63,
	// each at full associativity, and is empty until its first fill.
	pages []arrayPage[P]
	// Sparse layout; groups is nil in a dense array.
	groups []*[64]setBlock // header group of sets 64g…64g+63, nil until one fills
	chunks []arrayPage[P]  // block storage, chunkSlots slots each
	used   int             // slots cut from the last chunk
	free   [][]setBlock    // freed blocks, by sizeClass
	none   arrayPage[P]    // always empty: the page of a set without a block
	// touched has one bit per set, raised by every insert and cleared
	// only by reset. A set whose bit is clear holds no valid way, so reset
	// and forEach cost what a run touched, not what the geometry holds.
	touched []uint64
}

// arrayPage holds slots as two parallel slices: a way word and a payload
// per way. A way word holds the way's tag word in its low 32 bits and its
// LRU stamp in its high 32 bits. The tag word is the line address with the
// set-index bits stripped (hardware-style) plus validBit. A zero word is an
// empty way, and an empty way's payload is always zero. 32-bit tag words
// are exact because simulated physical addresses are bounded
// (Machine.Alloc caps the address space at 2^36 bytes, so line >> setBits
// always fits 31 bits). Stamps are distinct within a set, so comparing the
// valid ways' whole words orders them by stamp.
type arrayPage[P any] struct {
	words []uint64
	pay   []P
}

func newPage[P any](n int) arrayPage[P] {
	return arrayPage[P]{words: make([]uint64, n), pay: make([]P, n)}
}

// wayWord packs a valid way's tag word and LRU stamp.
func wayWord(key, stamp uint32) uint64 { return uint64(stamp)<<32 | uint64(key) }

// setBlock locates a sparse set's block: its chunk, the offset of its
// first slot in that chunk, and its size in ways, zero until the set's
// first fill. Chunk and offset are stored apart so that slots, which
// every lookup inlines, spends no inlining budget on splitting them.
type setBlock struct {
	chunk uint32
	off   uint16
	n     uint16
}

// validBit marks an occupied way inside a tag word.
const validBit = 1 << 31

// denseSlots bounds the geometries (sets × ways) that use the dense
// layout. 4096 slots covers a Table-1 L2 (512 sets × 8 ways, eight
// pages); the 32 MB L3 and 128 MB L4 are sparse.
const denseSlots = 4096

// chunkSlots is the size of a sparse array's chunks: big enough to
// amortize allocation, small enough that a small footprint does not
// overcommit.
const chunkSlots = 1024

// A chunk holds a block of every associativity Config.Validate accepts.
var _ [chunkSlots - maxWays]struct{}

// maxWays is the largest associativity an array supports, small enough
// that a block of any associativity fits in one chunk.
const maxWays = 255

// newArray builds an array holding sizeBytes of 64-byte lines with the
// given associativity (1 to maxWays). The set count is rounded down to a
// power of two.
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
	a.touched = make([]uint64, (p2+63)/64)
	if p2*ways <= denseSlots {
		a.pages = make([]arrayPage[P], (p2+63)/64)
	} else {
		a.groups = make([]*[64]setBlock, (p2+63)/64)
		a.free = make([][]setBlock, sizeClass(uint64(ways))+1)
	}
	return a
}

// sizeClass indexes the free lists by block size: ⌈log2 n⌉. Every size but
// the last is a power of two, and the last (the associativity) is the only
// one in its class.
func sizeClass(n uint64) int { return bits.Len64(n - 1) }

// setAt returns the page holding line's set, the offset of the set's way 0
// in it, and the number of ways the set has slots for: in a dense array
// the associativity, or 0 before the set's page is allocated; in a sparse
// one the block size, 0 before the set's first fill.
func (a *array[P]) setAt(line uint64) (*arrayPage[P], uint64, uint64) {
	return a.slots(line & a.setMask)
}

// slots is setAt by set index.
func (a *array[P]) slots(s uint64) (*arrayPage[P], uint64, uint64) {
	if a.groups == nil {
		// An allocated page holds at least one set's ways, an empty one
		// none, so n is the associativity or 0.
		pg := &a.pages[s>>6]
		n := min(uint64(len(pg.words)), uint64(a.ways))
		return pg, (s & 63) * n, n
	}
	g := a.groups[s>>6]
	if g == nil {
		return &a.none, 0, 0
	}
	b := g[s&63]
	return &a.chunks[b.chunk], uint64(b.off), uint64(b.n)
}

// peek returns the payload of the way holding line without touching LRU
// state.
func (a *array[P]) peek(line uint64) *P {
	pg, base, n := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	for w, x := range pg.words[base : base+n] {
		if uint32(x) == key {
			return &pg.pay[base+uint64(w)]
		}
	}
	return nil
}

// probe returns the payload of the way holding line and touches its LRU
// stamp, or returns nil on a miss.
func (a *array[P]) probe(line uint64) *P {
	pg, base, n := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	for w, x := range pg.words[base : base+n] {
		if uint32(x) == key {
			i := base + uint64(w)
			pg.words[i] = wayWord(key, a.step())
			return &pg.pay[i]
		}
	}
	return nil
}

// insert allocates a way for line, evicting the LRU way if the set is
// full. It returns the new way's payload (zero value), plus the victim's
// line address and payload if an eviction occurred. The caller must not
// insert a line that is already present. An insert may move the ways of
// line's set (a sparse block grows), so no payload pointer into that set
// survives it: callers re-derive theirs afterwards. A set with no slots
// yet (n == 0) always grows, which in a dense array allocates its page.
func (a *array[P]) insert(line uint64) (p *P, victimTag uint64, victim P, evicted bool) {
	pg, base, n := a.setAt(line)
	vi, vmin := n, ^uint64(0)
	for w := uint64(0); w < n; w++ {
		x := pg.words[base+w]
		if x == 0 {
			vi, evicted = w, false
			break
		}
		if x < vmin {
			vi, vmin = w, x
			evicted = true
		}
	}
	if evicted && n < uint64(a.ways) {
		// A full block of a set below its associativity: the fill takes
		// the first way past it.
		vi, evicted = n, false
	}
	if vi >= n {
		pg, base = a.grow(line&a.setMask, n)
	}
	i := base + vi
	if evicted {
		victimTag = uint64(uint32(pg.words[i])&^validBit)<<a.setBits | (line & a.setMask)
		victim = pg.pay[i]
	}
	var zero P
	pg.words[i] = wayWord(uint32(line>>a.setBits)|validBit, a.step())
	pg.pay[i] = zero
	a.mark(line)
	return &pg.pay[i], victimTag, victim, evicted
}

// grow moves sparse set s from its block of n ways to one twice that size
// (one way on the set's first fill, at most the associativity), keeping
// every way at its position, and returns the new block's page and offset.
// The old block is cleared and goes to its free list. In a dense array it
// allocates the page of set s, whose sets have no slots yet (n == 0).
//
//go:noinline
func (a *array[P]) grow(s, n uint64) (*arrayPage[P], uint64) {
	if a.groups == nil {
		pg := &a.pages[s>>6]
		*pg = newPage[P](min(int(a.setMask)+1, 64) * a.ways)
		return pg, (s & 63) * uint64(a.ways)
	}
	g := a.groups[s>>6]
	if g == nil {
		g = new([64]setBlock)
		a.groups[s>>6] = g
	}
	b := &g[s&63]
	nb := a.alloc(min(max(2*n, 1), uint64(a.ways)))
	pg, base := &a.chunks[nb.chunk], uint64(nb.off)
	if n > 0 {
		old, ob := &a.chunks[b.chunk], uint64(b.off)
		copy(pg.words[base:base+n], old.words[ob:ob+n])
		copy(pg.pay[base:base+n], old.pay[ob:ob+n])
		clear(old.words[ob : ob+n])
		clear(old.pay[ob : ob+n])
		c := sizeClass(n)
		a.free[c] = append(a.free[c], *b)
	}
	*b = nb
	return pg, base
}

// alloc returns an empty block of n ways: a freed block of that size if
// there is one, else the next n slots of the last chunk, or of a new chunk
// when the last one has fewer left.
func (a *array[P]) alloc(n uint64) setBlock {
	c := sizeClass(n)
	if f := a.free[c]; len(f) > 0 {
		a.free[c] = f[:len(f)-1]
		return f[len(f)-1]
	}
	if len(a.chunks) == 0 || a.used+int(n) > chunkSlots {
		a.chunks = append(a.chunks, newPage[P](chunkSlots))
		a.used = 0
	}
	b := setBlock{chunk: uint32(len(a.chunks) - 1), off: uint16(a.used), n: uint16(n)}
	a.used += int(n)
	return b
}

// mark records that line's set holds a valid way.
func (a *array[P]) mark(line uint64) {
	s := line & a.setMask
	a.touched[s>>6] |= 1 << (s & 63)
}

// invalidate removes line from the array and returns the payload it held
// and true, or a zero payload and false when line is absent. The LRU clock
// does not move: stamps are compared only within a set, and emptying a way
// reorders none of them.
func (a *array[P]) invalidate(line uint64) (P, bool) {
	pg, base, n := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	var zero P
	for i := base; i < base+n; i++ {
		if uint32(pg.words[i]) == key {
			p := pg.pay[i]
			pg.words[i] = 0
			pg.pay[i] = zero
			return p, true
		}
	}
	return zero, false
}

// step advances the LRU clock and returns the new stamp. Every hit and
// fill steps it once. Where the 32-bit clock would wrap, renumber first
// compacts every set's stamps, so a new stamp is always the set's newest.
func (a *array[P]) step() uint32 {
	if a.tick == math.MaxUint32 {
		a.renumber()
	}
	a.tick++
	return a.tick
}

// renumber gives the valid ways of each touched set the stamps 1…k in
// their LRU order and restarts the clock at the largest k. Stamps are only
// compared within a set, so no victim changes.
//
//go:noinline
func (a *array[P]) renumber() {
	a.tick = 0
	var rank [maxWays]uint32
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			_, pg, base, n := a.markedSet(wi, w)
			ws := pg.words[base : base+n]
			for i, x := range ws {
				rank[i] = 1 // 1 + the valid ways with an older stamp
				for _, y := range ws {
					if y != 0 && y < x {
						rank[i]++
					}
				}
			}
			for i, x := range ws {
				if x != 0 {
					ws[i] = wayWord(uint32(x), rank[i])
					a.tick = max(a.tick, rank[i])
				}
			}
		}
	}
}

// reset returns the array to its post-newArray state while keeping its
// storage for reuse (the arena's zero-on-reuse contract): a dense array's
// allocated pages, or a sparse array's header groups, chunks and every
// set's block, whose size only ever grows. Only the sets marked in
// touched can hold a valid way, and an empty way's word and payload are
// always zero, so clearing the marked sets leaves every slot zero.
func (a *array[P]) reset() {
	for wi, w := range a.touched {
		for ; w != 0; w &= w - 1 {
			_, pg, base, n := a.markedSet(wi, w)
			clear(pg.words[base : base+n])
			clear(pg.pay[base : base+n])
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
			set, pg, base, n := a.markedSet(wi, w)
			for i := base; i < base+n; i++ {
				if x := pg.words[i]; x != 0 {
					f(uint64(uint32(x)&^validBit)<<a.setBits|set, &pg.pay[i])
				}
			}
		}
	}
}

// markedSet returns the lowest set still marked in touched word wi (w
// holds the word's bits not yet visited), with its slots as setAt returns
// them.
func (a *array[P]) markedSet(wi int, w uint64) (set uint64, pg *arrayPage[P], base, n uint64) {
	set = uint64(wi)<<6 | uint64(bits.TrailingZeros64(w))
	pg, base, n = a.slots(set)
	return set, pg, base, n
}
