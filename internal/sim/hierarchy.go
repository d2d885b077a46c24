package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/ops"
)

// backing is the authoritative simulated memory image. MESI transactions
// read and write it directly (legal because the engine applies operations
// atomically in global issue order); under MEUSI, lines held update-only
// additionally have real partial-update buffers in the private caches, and
// reductions fold those buffers into the backing image. Nothing reads the
// image for a line while partial updates are outstanding — the directory
// reduces first — so eager folding on evictions is functionally exact.
//
// Storage is a two-level paged table: a slice of fixed-size pages with
// lines embedded by value. Simulated allocation is dense from the 1 MB
// base, so indexing is a shift plus one predictable bounds check — no map
// hashing and no per-line pointer allocation on the access hot path.
type backing struct {
	pages []*backingPage
	// One-entry page cache: workloads stream lines sequentially, so the
	// vast majority of accesses land on the page of the previous one.
	// lastIdx is offset by one so the zero value never aliases page 0.
	lastIdx  uint64
	lastPage *backingPage
}

const (
	pageLineShift = 9                  // 512 lines per page
	pageLineCount = 1 << pageLineShift // 32 KB of simulated memory per page
)

type backingPage [pageLineCount]ops.Line

func newBacking() *backing { return &backing{} }

// line returns the backing line with index l (address >> 6), materializing
// its page on first touch.
func (b *backing) line(l uint64) *ops.Line {
	pi := l >> pageLineShift
	if pi+1 == b.lastIdx {
		return &b.lastPage[l&(pageLineCount-1)]
	}
	if pi >= uint64(len(b.pages)) || b.pages[pi] == nil {
		b.growTo(pi)
	}
	b.lastIdx = pi + 1
	b.lastPage = b.pages[pi]
	return &b.pages[pi][l&(pageLineCount-1)]
}

// growTo is the cold path of line: it extends the page directory and
// allocates page pi.
func (b *backing) growTo(pi uint64) {
	for uint64(len(b.pages)) <= pi {
		b.pages = append(b.pages, nil)
	}
	b.pages[pi] = new(backingPage)
}

func (b *backing) lineOf(addr uint64) *ops.Line { return b.line(addr >> 6) }

func (b *backing) read64(addr uint64) uint64     { return b.lineOf(addr)[(addr>>3)&7] }
func (b *backing) write64(addr, v uint64)        { b.lineOf(addr)[(addr>>3)&7] = v }
func (b *backing) read32(addr uint64) uint32     { return word32(b.read64(addr), addr) }
func (b *backing) write32(addr uint64, v uint32) { setWord32(&b.lineOf(addr)[(addr>>3)&7], addr, v) }

// lineState is a stable coherence state: of a line in a core's private
// cache, or (dirLine.cstate) of a chip's grant from the global directory.
type lineState uint8

const (
	stateI lineState = iota // invalid
	stateS                  // shared, read-only
	stateU                  // update-only under one commutative type (COUP)
	stateE                  // exclusive clean
	stateM                  // modified
)

func (s lineState) String() string {
	if s <= stateM {
		return "ISUEM"[s : s+1]
	}
	return fmt.Sprintf("lineState(%d)", uint8(s))
}

// CanRead reports whether a line in s satisfies a load locally.
func (s lineState) CanRead() bool { return s == stateS || s == stateE || s == stateM }

// Exclusive reports whether s implies no other cache holds a valid copy.
func (s lineState) Exclusive() bool { return s == stateE || s == stateM }

// privLine is the coherence payload of a private (L2) cache line. buf is
// a handle into the core's buffer slab, not a pointer, so an L2 slot costs
// 16 bytes with its way word and the garbage collector never scans an L2
// page.
type privLine struct {
	state lineState
	otype ops.Type // operation type when state == U
	buf   uint32   // partial-update buffer (privCache.buf) when state == U; 0 = none
}

// dirLine is the payload of an L3/L4 in-cache-directory entry. At the L3 it
// tracks the cores of one chip; at the L4 it tracks chips. cstate is only
// meaningful at the L3: the chip's own permission granted by the global
// directory (S, U, E or M).
type dirLine struct {
	sharers uint64 // bitvector of children holding non-exclusive copies
	owner   int16  // child holding E/M, or -1
	otype   ops.Type
	dirty   bool
	cstate  lineState
}

func (d *dirLine) hasChildren() bool { return d.sharers != 0 || d.owner >= 0 }

// children returns the bitvector of every child the entry names, its owner
// included.
func (d *dirLine) children() uint64 {
	if d.owner >= 0 {
		return d.sharers | bit(int(d.owner))
	}
	return d.sharers
}

// bank models one L3/L4 bank: directory/tag pipeline occupancy, per-line
// transaction serialization, and the bank's reduction unit (Sec 3.1.1).
type bank struct {
	busyUntil uint64
	redBusy   uint64
	lineBusy  busyTable
}

func newBank() *bank { return &bank{lineBusy: newBusyTable()} }

// reduce runs cycles of work through the bank's reduction unit once the
// unit is free, charging the wait and the work to bucket.
func (b *bank) reduce(tx *txn, cycles uint64, bucket *uint64) {
	tx.waitUntil(b.redBusy, bucket)
	tx.adv(cycles, bucket)
	b.redBusy = tx.now
}

// busyTable maps a line address to the cycle its last bank transaction
// completes. It is an open-addressed linear-probe table (power-of-two
// capacity, keys stored as line+1 so zero marks an empty slot): lookups on
// the access hot path cost one multiply-hash and usually one probe, with
// no map-hashing or bucket allocation.
//
// Simulation time is globally non-decreasing at service points, so an
// entry whose busy-until cycle is ≤ the current watermark can never delay
// another transaction again. When the table needs room it first discards
// those expired entries and only doubles if the live set is genuinely
// large — long sweeps touching millions of distinct lines therefore keep
// a table sized by the *concurrently busy* lines instead of leaking an
// entry per line ever contended (the old map grew without bound).
type busyTable struct {
	keys []uint64 // line+1; 0 = empty
	vals []uint64 // busy-until cycle
	n    int      // occupied slots
	mask uint64
}

func newBusyTable() busyTable {
	const initialSlots = 32
	return busyTable{
		keys: make([]uint64, initialSlots),
		vals: make([]uint64, initialSlots),
		mask: initialSlots - 1,
	}
}

// get returns the busy-until cycle recorded for line, 0 if none.
func (t *busyTable) get(line uint64) uint64 {
	k := line + 1
	for i := mixLine(line) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// put records that line's current transaction completes at until. When the
// table gets crowded it first reclaims, in place and without allocating,
// entries expired relative to watermark (the engine's current service
// time), and only doubles capacity if the live set genuinely needs it.
func (t *busyTable) put(line, until, watermark uint64) {
	k := line + 1
	for i := mixLine(line) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			t.vals[i] = until
			return
		case 0:
			if 4*(t.n+1) > 3*len(t.keys) {
				t.purge(watermark)
				// Purges that reclaim only a sliver leave the table on the
				// edge of the load threshold, triggering an O(capacity) purge
				// walk every few puts; demand real headroom (<=5/8 live)
				// before trusting the purge, else double. Capacity never
				// affects lookup results, only walk frequency.
				if 8*(t.n+1) > 5*len(t.keys) {
					t.grow()
				}
				t.put(line, until, watermark)
				return
			}
			t.keys[i] = k
			t.vals[i] = until
			t.n++
			return
		}
	}
}

// purge deletes expired entries in place via backward-shift compaction.
// An entry shifted from the tail of a wrapping probe cluster can land
// behind the sweep cursor and survive one purge; that is harmless —
// expired entries never delay a transaction, they only occupy a slot.
func (t *busyTable) purge(watermark uint64) {
	for i := uint64(0); i < uint64(len(t.keys)); i++ {
		for t.keys[i] != 0 && t.vals[i] <= watermark {
			t.deleteAt(i) // may shift another (possibly expired) entry into i
		}
	}
}

// deleteAt empties slot i, backward-shifting the entries of its linear-
// probe cluster so every survivor stays reachable from its home slot.
func (t *busyTable) deleteAt(i uint64) {
	mask := t.mask
	j := i
	for {
		t.keys[i] = 0
		for {
			j = (j + 1) & mask
			if t.keys[j] == 0 {
				t.n--
				return
			}
			home := mixLine(t.keys[j]-1) & mask
			// An entry whose home lies cyclically in (i, j] still reaches
			// slot j after i empties; anything else must shift into i.
			inHole := false
			if i <= j {
				inHole = i < home && home <= j
			} else {
				inHole = i < home || home <= j
			}
			if !inHole {
				t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
				break
			}
		}
		i = j
	}
}

// grow doubles capacity, rehashing every remaining entry.
func (t *busyTable) grow() {
	slots := 2 * len(t.keys)
	keys := make([]uint64, slots)
	vals := make([]uint64, slots)
	mask := uint64(slots - 1)
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		for j := mixLine(k-1) & mask; ; j = (j + 1) & mask {
			if keys[j] == 0 {
				keys[j] = k
				vals[j] = t.vals[i]
				break
			}
		}
	}
	t.keys, t.vals, t.mask = keys, vals, mask
}

// privCache is one core's private L1 and L2, plus the slab holding the
// partial-update buffers of the core's U lines. Every U grant needs a
// buffer, and contended workloads cycle through grants constantly, so a
// freed buffer goes on a free list threaded through the buffers' first
// words, and the steady state allocates nothing.
type privCache struct {
	l1 *array[struct{}]
	l2 *array[privLine]
	// bufs are the slab's pages. Handle h > 0 names line (h-1) %
	// bufPageLines of page (h-1) / bufPageLines; pages never move, so a
	// handle stays valid while the line holds it.
	bufs    []*bufPage
	bufUsed uint32 // handles cut from the pages so far
	bufFree uint32 // first freed handle, 0 when none
}

// bufPageLines is the size of a slab page: 1 KB of buffers. In the
// contended workloads a core holds at most a few lines in U at once, so a
// small page keeps a 128-core machine's slabs small; a core that holds
// many takes more pages.
const bufPageLines = 16

type bufPage [bufPageLines]ops.Line

// buf returns the partial-update buffer with handle h.
func (pc *privCache) buf(h uint32) *ops.Line {
	i := h - 1
	return &pc.bufs[i/bufPageLines][i%bufPageLines]
}

// newBuf returns the handle of a partial-update buffer for t, holding t's
// identity element in every word: a freed buffer when there is one, else
// the next unused line of the slab.
func (pc *privCache) newBuf(t ops.Type) uint32 {
	h := pc.bufFree
	if h != 0 {
		pc.bufFree = uint32(pc.buf(h)[0])
	} else {
		if pc.bufUsed == uint32(len(pc.bufs))*bufPageLines {
			pc.bufs = append(pc.bufs, new(bufPage))
		}
		pc.bufUsed++
		h = pc.bufUsed
	}
	b, id := pc.buf(h), t.Identity()
	for i := range b {
		b[i] = id
	}
	return h
}

// freeBuf puts buffer h on the free list.
func (pc *privCache) freeBuf(h uint32) {
	pc.buf(h)[0] = uint64(pc.bufFree)
	pc.bufFree = h
}

// dirCache is one directory level's array and banks: a chip's L3 or the
// global L4.
type dirCache struct {
	arr      *array[dirLine]
	banks    []*bank
	bankMask int // len(banks)-1 when a power of two, else -1 (modulo path)
}

func newDirCache(size, ways, banks int) dirCache {
	d := dirCache{arr: newArray[dirLine](size, ways), banks: make([]*bank, banks), bankMask: powMask(banks)}
	for i := range d.banks {
		d.banks[i] = newBank()
	}
	return d
}

func (d *dirCache) bank(line uint64) *bank {
	if d.bankMask >= 0 {
		return d.banks[mixLine(line)&uint64(d.bankMask)]
	}
	return d.banks[mixLine(line)%uint64(len(d.banks))]
}

type l3cache struct {
	dirCache
	chip int
}

type l4cache struct {
	dirCache
	chans    []uint64 // per-DRAM-channel busy-until
	chanMask int
}

func (l *l4cache) channel(line uint64) *uint64 {
	if l.chanMask >= 0 {
		return &l.chans[(mixLine(line)>>8)&uint64(l.chanMask)]
	}
	return &l.chans[(mixLine(line)>>8)%uint64(len(l.chans))]
}

// powMask returns n-1 when n is a power of two, else -1 to select the
// modulo path. Both pick identical indices: x % n == x & (n-1) for powers
// of two. The L4's bank and channel counts scale with the chip count, so
// a machine with a chip count that is not a power of two takes the modulo
// path: 96 cores make 6 chips, 48 L4 banks and 24 channels.
func powMask(n int) int {
	if n&(n-1) == 0 {
		return n - 1
	}
	return -1
}

// mixLine hashes a line address so banks interleave well even for strided
// footprints.
func mixLine(l uint64) uint64 {
	l ^= l >> 17
	l *= 0xED5AD4BB
	l ^= l >> 11
	return l
}

// shReq classifies the permission a private cache requests from the
// directory hierarchy.
type shReq uint8

const (
	shGetS shReq = iota // read permission
	shGetX              // exclusive permission
	shGetU              // update-only permission (COUP)
)

type hierarchy struct {
	cfg    *Config
	st     *Stats
	store  *backing
	priv   []*privCache
	chips  []*l3cache
	l4     *l4cache
	jrng   rng
	hasE   bool
	remote bool

	// now is the engine's current service time (the issuing core's clock at
	// the top of access). It is globally non-decreasing and serves as the
	// expiry watermark for the banks' line-serialization tables.
	now uint64
}

func newHierarchy(cfg *Config, st *Stats) *hierarchy {
	n := cfg.Chips()
	h := &hierarchy{
		cfg:    cfg,
		st:     st,
		store:  newBacking(),
		hasE:   cfg.Protocol.hasE(),
		remote: cfg.Protocol.Remote(),
		jrng:   newRNG(cfg.Seed ^ 0xC0FFEE),
	}
	h.priv = make([]*privCache, cfg.Cores)
	for i := range h.priv {
		h.priv[i] = &privCache{
			l1: newArray[struct{}](cfg.L1Size, cfg.L1Ways),
			l2: newArray[privLine](cfg.L2Size, cfg.L2Ways),
		}
	}
	h.chips = make([]*l3cache, n)
	for i := range h.chips {
		h.chips[i] = &l3cache{dirCache: newDirCache(cfg.L3Size, cfg.L3Ways, cfg.L3Banks), chip: i}
	}
	h.l4 = &l4cache{
		dirCache: newDirCache(cfg.L4Size*n, cfg.L4Ways, cfg.L4Banks*n),
		chans:    make([]uint64, cfg.MemChannels*n),
		chanMask: powMask(cfg.MemChannels * n),
	}
	return h
}

// txn threads time and latency attribution through one transaction.
type txn struct {
	now uint64
	bd  Breakdown
}

func (t *txn) adv(cycles uint64, bucket *uint64) {
	t.now += cycles
	*bucket += cycles
}

// waitUntil advances time to at least abs, charging the wait to bucket.
func (t *txn) waitUntil(abs uint64, bucket *uint64) {
	if abs > t.now {
		*bucket += abs - t.now
		t.now = abs
	}
}

func (h *hierarchy) jitter() uint64 { return h.jrng.intn(maxJitter + 1) }

const invalidOwner = -1

func bit(i int) uint64 { return 1 << uint(i) }

// invalRTT is the round-trip cost of the L3 directory invalidating or
// downgrading one of its cores' private caches.
const invalRTT = 2*onChipHop + l2Lat

// reduceCycles is the reduction unit's time to fold n partial lines.
func (h *hierarchy) reduceCycles(n int) uint64 {
	return h.cfg.ReduceLatency + uint64(n)*h.cfg.ReduceCyclesPerLine
}

// access performs core c's memory operation r, issued at c.time:
// functional effect plus critical-path latency. It returns the operation's
// total latency.
//
//coup:hotpath
func (h *hierarchy) access(c *core, r *request) uint64 {
	h.now = c.time
	h.st.Accesses++
	var atomicOp bool // RMW, CAS and commutative updates pay AtomicOverhead
	switch r.kind {
	case opLoad:
		h.st.Loads++
	case opStore:
		h.st.Stores++
	case opRMW, opCAS:
		h.st.Atomics++
		atomicOp = true
	case opComm:
		h.st.CommUpdates++
		atomicOp = true
		if h.remote {
			return h.rmoUpdate(c, r)
		}
	}

	line := r.addr >> 6
	pc := c.pc

	// Private-cache fast path. Latency accounting goes straight into the
	// global breakdown buckets — no per-transaction scratch to zero and
	// merge on the path that serves the overwhelming majority of accesses.
	l2s := pc.l2.probe(line)
	if l2s != nil && h.privSufficient(l2s, r) {
		var lat uint64
		if pc.l1.probe(line) != nil {
			h.st.L1Hits++
			lat = l1Lat
		} else {
			h.st.L2Hits++
			lat = l1Lat + l2Lat
			h.st.Breakdown.L2 += l2Lat
			pc.l1.insert(line) // L1 fills silently; L2 is inclusive
		}
		l1bd := l1Lat
		if atomicOp {
			lat += atomicOverhead
			l1bd += atomicOverhead
			if r.kind == opComm {
				h.st.ULocalHits++ // COUP's fast path: buffered locally
			}
		}
		h.st.Breakdown.L1 += l1bd
		if r.kind == opComm && l2s.state == stateU {
			// COUP's hot loop — buffer and coalesce locally (Sec 3.1.2),
			// inlined here to spare the applyPriv dispatch.
			w, b := (r.addr>>3)&7, pc.buf(l2s.buf)
			b[w] = ops.ApplyAt(r.otype, b[w], uint(r.addr&7), r.val)
			return lat
		}
		h.applyPriv(c, l2s, r)
		return lat
	}
	tx := txn{now: c.time}

	// Miss path. First fold and drop our own insufficient copy (l2s, found
	// by the sufficiency probe above): its partial update (U) travels with
	// the request and is folded by the reduction the directory is about to
	// run; a read-only copy (S) is dropped by the upgrade. The matching
	// L3-directory drop rides l3Access's own probe (dropSelf) instead of a
	// separate tag scan here.
	if l2s != nil {
		if l2s.state == stateU {
			h.foldBufferAt(pc, line, l2s)
		}
		pc.l2.invalidate(line)
		pc.l1.invalidate(line)
	}

	tx.adv(l1Lat, &tx.bd.L1)
	tx.adv(l2Lat, &tx.bd.L2)

	var rq shReq
	switch r.kind {
	case opLoad:
		rq = shGetS
	case opStore, opRMW, opCAS:
		rq = shGetX
	case opComm:
		rq = shGetU
	}

	grant := h.l3Access(c, line, rq, r.otype, &tx, l2s != nil)

	// Fill the private cache with the granted line and apply the operation.
	filled := h.fillPriv(c, line, grant, r.otype)
	if atomicOp {
		tx.adv(atomicOverhead, &tx.bd.L1)
	}
	h.applyPriv(c, filled, r)
	h.st.Breakdown.add(tx.bd)
	return tx.now - c.time
}

// privSufficient reports whether the private line's permissions satisfy r
// locally.
func (h *hierarchy) privSufficient(p *privLine, r *request) bool {
	switch r.kind {
	case opLoad:
		return p.state.CanRead()
	case opStore, opRMW, opCAS:
		return p.state.Exclusive()
	case opComm:
		return p.state.Exclusive() || (p.state == stateU && p.otype == r.otype)
	}
	return false
}

// word32 reads the 32-bit half of *w selected by addr bit 2.
func word32(w uint64, addr uint64) uint32 {
	if addr&4 != 0 {
		return uint32(w >> 32)
	}
	return uint32(w)
}

// setWord32 writes the 32-bit half of *w selected by addr bit 2.
func setWord32(w *uint64, addr uint64, v uint32) {
	if addr&4 != 0 {
		*w = *w&0x00000000FFFFFFFF | uint64(v)<<32
	} else {
		*w = *w&^uint64(0xFFFFFFFF) | uint64(v)
	}
}

// applyPriv performs the functional effect of r against a line the private
// cache now has sufficient permission for. The backing word is read once,
// at r's width, and written at most once.
func (h *hierarchy) applyPriv(c *core, p *privLine, r *request) {
	if r.kind == opComm && p.state == stateU {
		// Buffer and coalesce locally (Sec 3.1.2).
		w, b := (r.addr>>3)&7, c.pc.buf(p.buf)
		b[w] = ops.ApplyAt(r.otype, b[w], uint(r.addr&7), r.val)
		return
	}
	w := &h.store.lineOf(r.addr)[(r.addr>>3)&7]
	old := *w
	if r.width == 4 {
		old = uint64(word32(old, r.addr))
	}
	if r.kind == opLoad {
		r.out = old
		return
	}
	// Every other kind holds the line exclusively, and its copy turns
	// dirty even when a CAS fails.
	if p.state == stateE {
		p.state = stateM
	}
	nv := r.val // a store, an exchange or a successful CAS
	switch r.kind {
	case opComm:
		// Exclusive states apply in place, in the operation's lane.
		*w = ops.ApplyAt(r.otype, *w, uint(r.addr&7), r.val)
		return
	case opCAS:
		r.out, r.ok = old, old == r.cmp
		if !r.ok {
			return
		}
	case opRMW:
		r.out = old
		switch r.rop {
		case rmwAdd:
			nv = old + r.val
		case rmwOr:
			nv = old | r.val
		case rmwAnd:
			nv = old & r.val
		case rmwXor:
			nv = old ^ r.val
		}
	}
	if r.width == 4 {
		setWord32(w, r.addr, uint32(nv))
	} else {
		*w = nv
	}
}

// fillPriv installs a line in the requesting core's L1/L2 with the granted
// state and returns its L2 payload, so the caller can apply the operation
// without rescanning the set.
func (h *hierarchy) fillPriv(c *core, line uint64, grant lineState, t ops.Type) *privLine {
	pc := h.priv[c.id]
	s, vtag, vp, evicted := pc.l2.insert(line)
	if evicted {
		h.evictPrivLine(c, vtag, &vp)
		pc.l1.invalidate(vtag)
	}
	*s = privLine{state: grant}
	if grant == stateU {
		s.buf = pc.newBuf(t)
		s.otype = t
	}
	pc.l1.insert(line)
	return s
}

// evictPrivLine handles an L2 capacity eviction: partial reduction for U
// lines (Fig 5c), writeback for M, and directory notification (no silent
// drops). These are off the requester's critical path; only traffic,
// reduction-unit occupancy and directory state are updated.
func (h *hierarchy) evictPrivLine(c *core, line uint64, p *privLine) {
	ch := h.chips[c.chip]
	ci := c.id % h.cfg.CoresPerChip
	e := ch.arr.peek(line)
	if e == nil {
		panic(fmt.Sprintf("sim: inclusion violated — L2 line %#x missing from L3", line))
	}
	switch p.state {
	case stateU:
		h.foldBufferAt(h.priv[c.id], line, p)
		h.st.PartialReductions++
		h.onChip(dataBytes) // partial update travels with the eviction
		ch.bank(line).redBusy += h.cfg.ReduceCyclesPerLine
		e.sharers &^= bit(ci)
	case stateM:
		h.onChip(dataBytes)
		e.dirty = true
		if e.owner == int16(ci) {
			e.owner = invalidOwner
		}
	case stateE:
		h.onChip(ctrlBytes)
		if e.owner == int16(ci) {
			e.owner = invalidOwner
		}
	case stateS:
		h.onChip(ctrlBytes)
		e.sharers &^= bit(ci)
	}
}

// foldBufferAt folds the partial updates of a U line into the backing
// image and frees the buffer.
func (h *hierarchy) foldBufferAt(pc *privCache, line uint64, p *privLine) {
	if p.buf == 0 {
		return
	}
	if p.otype.IsUpdate() {
		ops.Reduce(p.otype, h.store.line(line), pc.buf(p.buf))
	}
	pc.freeBuf(p.buf)
	p.buf = 0
}

func (h *hierarchy) onChip(bytes uint64) {
	h.st.OnChipMsgs++
	h.st.OnChipBytes += bytes
}

func (h *hierarchy) offChip(bytes uint64) {
	h.st.OffChipMsgs++
	h.st.OffChipBytes += bytes
}

// l3Access obtains the requested permission for core c from its chip's L3
// directory, escalating to the L4 global directory when the chip's own
// permission is insufficient. It returns the state to install in the
// private cache. dropSelf marks a requester that just dropped its own
// insufficient private copy: the matching directory-entry cleanup happens
// on the entry found by this function's probe, instead of a separate tag
// scan in access.
func (h *hierarchy) l3Access(c *core, line uint64, rq shReq, t ops.Type, tx *txn, dropSelf bool) lineState {
	ch := h.chips[c.chip]
	b := ch.bank(line)
	ci := c.id % h.cfg.CoresPerChip

	// Serialize against other transactions on this line and this bank.
	tx.waitUntil(b.lineBusy.get(line), &tx.bd.L3)
	tx.waitUntil(b.busyUntil, &tx.bd.L3)
	b.busyUntil = tx.now + dirBankService
	tx.adv(l3Lat+h.jitter(), &tx.bd.L3)
	h.onChip(ctrlBytes)

	e := ch.arr.probe(line)
	if e != nil && dropSelf {
		// The requester no longer holds its (just-dropped) private copy;
		// clear it before any directory decision reads the sharer set. The
		// copy was S or U, a sharer: an E or M copy satisfies every request
		// in privSufficient, so its owner never takes the miss path.
		e.sharers &^= bit(ci)
	}
	if e != nil && h.chipSufficient(e, rq, t) {
		h.st.L3Hits++
	} else {
		// Obtain chip permission from the L4, then find or allocate the
		// (inclusive) L3 entry: a chip miss has none, and a global
		// reduction run by l4Access may have invalidated ours.
		cstate := h.l4Access(c, line, rq, t, tx)
		if e = ch.arr.peek(line); e == nil {
			s, vtag, vp, evicted := ch.arr.insert(line)
			if evicted {
				h.evictL3Line(ch, vtag, &vp)
			}
			*s = dirLine{owner: invalidOwner}
			e = s
		}
		e.cstate = cstate
	}

	grant := h.resolveInChip(c, ch, e, line, rq, t, tx, ci)
	b.lineBusy.put(line, tx.now, h.now)
	return grant
}

// chipSufficient reports whether the chip's global permission covers rq.
func (h *hierarchy) chipSufficient(d *dirLine, rq shReq, t ops.Type) bool {
	switch rq {
	case shGetS:
		return d.cstate == stateS || d.cstate.Exclusive()
	case shGetX:
		return d.cstate.Exclusive()
	case shGetU:
		if d.cstate.Exclusive() {
			return true
		}
		return d.cstate == stateU && d.otype == t
	}
	return false
}

// resolveInChip resolves the in-chip directory actions once the chip itself
// holds sufficient permission, and returns the state granted to the core.
func (h *hierarchy) resolveInChip(c *core, ch *l3cache, d *dirLine, line uint64, rq shReq, t ops.Type, tx *txn, ci int) lineState {
	switch rq {
	case shGetS:
		if d.owner >= 0 {
			// Downgrade the in-chip owner; it keeps a read-only copy.
			h.downgradeCore(ch.chip, int(d.owner), line, stateS, ops.Read)
			tx.adv(invalRTT, &tx.bd.L3)
			d.sharers |= bit(int(d.owner))
			d.owner = invalidOwner
			d.dirty = true
			d.otype = ops.Read
		} else if d.sharers != 0 && d.otype.IsUpdate() {
			// In-chip full reduction (Fig 5d), permitted because the chip is
			// exclusive (otherwise l4Access already ran a global reduction).
			h.reduceChipCores(ch, d, line, tx, &tx.bd.L3)
			d.otype = ops.Read
			h.st.TypeSwitches++
		}
		d.sharers |= bit(ci)
		d.otype = ops.Read
		if d.sharers == bit(ci) && d.cstate.Exclusive() && h.hasE {
			// Sole copy anywhere: exclusive-clean grant.
			d.sharers = 0
			d.owner = int16(ci)
			return stateE
		}
		return stateS

	case shGetX:
		if d.owner >= 0 {
			h.invalidateCore(ch.chip, int(d.owner), line)
			tx.adv(invalRTT, &tx.bd.L3)
			d.dirty = true
			d.owner = invalidOwner
		}
		if d.sharers != 0 {
			if d.otype.IsUpdate() {
				h.reduceChipCores(ch, d, line, tx, &tx.bd.L3)
			} else {
				h.invalidateChipSharers(ch, d, line, tx, &tx.bd.L3)
			}
		}
		d.owner = int16(ci)
		d.sharers = 0
		d.cstate = stateM
		d.dirty = true
		return stateM

	case shGetU:
		if d.owner >= 0 {
			// Fig 5b: downgrade the owner M→U; it stays a sharer with an
			// identity buffer, and its value is written back (to the backing
			// image here).
			h.downgradeCore(ch.chip, int(d.owner), line, stateU, t)
			tx.adv(invalRTT, &tx.bd.L3)
			d.sharers |= bit(int(d.owner))
			d.owner = invalidOwner
			d.dirty = true
			d.otype = t
		} else if d.sharers != 0 {
			if !d.otype.IsUpdate() {
				// Invalidate read-only copies (Fig 5a).
				h.invalidateChipSharers(ch, d, line, tx, &tx.bd.L3)
				h.st.TypeSwitches++
			} else if d.otype != t {
				// Serialize different update types via full reduction.
				h.reduceChipCores(ch, d, line, tx, &tx.bd.L3)
				h.st.TypeSwitches++
			}
		}
		if d.sharers == 0 && d.owner < 0 && d.cstate.Exclusive() && h.hasE {
			// Fig 6: update request on an unshared line is granted in M.
			d.owner = int16(ci)
			d.dirty = true
			return stateM
		}
		d.sharers |= bit(ci)
		d.otype = t
		h.st.UGrants++
		return stateU
	}
	panic("unreachable")
}

// downgradeCore demotes a core's private copy from M/E to S or U.
func (h *hierarchy) downgradeCore(chip, ci int, line uint64, to lineState, t ops.Type) {
	coreID := chip*h.cfg.CoresPerChip + ci
	pc := h.priv[coreID]
	s := pc.l2.peek(line)
	if s == nil {
		panic(fmt.Sprintf("sim: directory thinks core %d owns %#x but L2 misses", coreID, line))
	}
	h.st.Downgrades++
	if s.state == stateM {
		h.onChip(dataBytes) // dirty value written back
	} else {
		h.onChip(ctrlBytes)
	}
	s.state = to
	if to == stateU {
		s.buf = pc.newBuf(t)
		s.otype = t
	} else {
		s.buf = 0
		s.otype = ops.Read
	}
}

// invalidateCore removes a core's private copy, folding partial updates and
// accounting the ack traffic. It returns the state the copy held, so
// recallCores counts update-only copies without a pre-peek of the same L2
// set. The victim L2 set is walked once: invalidate returns the copy it
// removed. It never reads the L3 array.
func (h *hierarchy) invalidateCore(chip, ci int, line uint64) lineState {
	coreID := chip*h.cfg.CoresPerChip + ci
	pc := h.priv[coreID]
	s, ok := pc.l2.invalidate(line)
	if !ok {
		panic(fmt.Sprintf("sim: directory thinks core %d holds %#x but L2 misses", coreID, line))
	}
	pc.l1.invalidate(line)
	h.st.Invalidations++
	switch s.state {
	case stateU:
		h.foldBufferAt(pc, line, &s)
		h.onChip(dataBytes)
	case stateM:
		h.onChip(dataBytes)
	default:
		h.onChip(ctrlBytes)
	}
	return s.state
}

// invalidateChipSharers invalidates every in-chip non-exclusive copy and
// returns how many there were. Critical path: one round trip plus a small
// fan-out cost per extra sharer.
func (h *hierarchy) invalidateChipSharers(ch *l3cache, d *dirLine, line uint64, tx *txn, bucket *uint64) (n int) {
	for rem := d.sharers; rem != 0; rem &= rem - 1 {
		h.invalidateCore(ch.chip, bits.TrailingZeros64(rem), line)
		n++
	}
	d.sharers = 0
	if n > 0 {
		tx.adv(invalRTT+uint64(n-1), bucket)
	}
	return n
}

// reduceChipCores performs an in-chip full reduction: every U copy is
// invalidated, its partial update folded by the bank's reduction unit.
func (h *hierarchy) reduceChipCores(ch *l3cache, d *dirLine, line uint64, tx *txn, bucket *uint64) {
	if n := h.invalidateChipSharers(ch, d, line, tx, bucket); n > 0 {
		h.st.FullReductions++
		ch.bank(line).reduce(tx, h.reduceCycles(n), bucket)
		d.dirty = true
	}
}

// recallCores invalidates every core copy that chip q's entry d names,
// owner and sharers, and returns how many of them were update-only. It
// leaves d itself unchanged.
func (h *hierarchy) recallCores(q int, d *dirLine, line uint64) (nU int) {
	for rem := d.children(); rem != 0; rem &= rem - 1 {
		if h.invalidateCore(q, bits.TrailingZeros64(rem), line) == stateU {
			nU++
		}
	}
	return nU
}

// evictL3Line handles an inclusive L3 capacity eviction: recall every core
// copy in this chip, then notify/write back to the L4. Off the critical
// path; traffic and directory state only.
func (h *hierarchy) evictL3Line(ch *l3cache, line uint64, d *dirLine) {
	if nU := h.recallCores(ch.chip, d, line); nU > 0 {
		h.st.PartialReductions++
		ch.bank(line).redBusy += uint64(nU) * h.cfg.ReduceCyclesPerLine
	}
	// Update the global directory: this chip no longer caches the line.
	ge := h.l4.arr.peek(line)
	if ge == nil {
		panic(fmt.Sprintf("sim: inclusion violated — L3 line %#x missing from L4", line))
	}
	if ge.owner == int16(ch.chip) {
		ge.owner = invalidOwner
		ge.dirty = true
	}
	ge.sharers &^= bit(ch.chip)
	// A recalled owner may have written the line.
	if d.dirty || d.owner >= 0 || d.cstate == stateU {
		h.offChip(dataBytes)
		ge.dirty = true
	} else {
		h.offChip(ctrlBytes)
	}
}

// l4Access obtains chip-level permission for c's chip from the global
// directory, performing cross-chip invalidations, downgrades and global
// reductions as needed. It returns the chip state granted (S, U, or M for
// exclusive).
func (h *hierarchy) l4Access(c *core, line uint64, rq shReq, t ops.Type, tx *txn) lineState {
	b := h.l4.bank(line)
	p := c.chip

	tx.adv(2*linkLat, &tx.bd.Net) // request + reply link traversals
	tx.waitUntil(b.lineBusy.get(line), &tx.bd.L4Inval)
	tx.waitUntil(b.busyUntil, &tx.bd.L4)
	b.busyUntil = tx.now + dirBankService
	tx.adv(l4Lat+h.jitter(), &tx.bd.L4)
	h.offChip(ctrlBytes)

	ge := h.l4.arr.probe(line)
	if ge == nil {
		// Global miss: fetch from memory. Update-only requests need no data
		// (the line starts at the identity element); the fill happens off
		// the critical path.
		if rq == shGetU {
			h.memAccessBackground(line)
		} else {
			h.memAccess(line, tx)
		}
		ge = h.fillL4(line)
	} else {
		h.st.L4Hits++
	}

	grant := h.resolveGlobal(p, ge, line, rq, t, tx)
	b.lineBusy.put(line, tx.now, h.now)
	h.offChip(dataBytes) // grant reply (data or permission+identity metadata)
	return grant
}

// resolveGlobal applies the cross-chip directory actions for chip p's
// request and returns the granted chip state. The owner is never p
// itself: an owning chip's L3 holds the line with an exclusive cstate,
// which chipSufficient accepts for every request, so l4Access never runs
// for it.
func (h *hierarchy) resolveGlobal(p int, d *dirLine, line uint64, rq shReq, t ops.Type, tx *txn) lineState {
	hasE := h.hasE
	switch rq {
	case shGetS:
		if d.owner >= 0 && d.owner != int16(p) {
			h.downgradeChip(int(d.owner), line, stateS, ops.Read, tx)
			d.sharers |= bit(int(d.owner))
			d.owner = invalidOwner
			d.dirty = true
			d.otype = ops.Read
		}
		if d.sharers != 0 && d.otype.IsUpdate() {
			h.globalReduction(d, line, tx)
			h.st.TypeSwitches++
		}
		d.otype = ops.Read
		d.sharers |= bit(p)
		if d.sharers == bit(p) && hasE {
			d.sharers = 0
			d.owner = int16(p)
			return stateM // chip-exclusive
		}
		return stateS

	case shGetX:
		if d.owner >= 0 && d.owner != int16(p) {
			h.invalidateChip(int(d.owner), line, tx)
			d.dirty = true
			d.owner = invalidOwner
		}
		if d.sharers != 0 {
			if d.otype.IsUpdate() {
				h.globalReduction(d, line, tx)
			} else {
				h.invalidateGlobalSharers(d, line, p, tx)
			}
		}
		d.owner = int16(p)
		d.sharers = 0
		d.dirty = true
		return stateM

	case shGetU:
		if d.owner >= 0 && d.owner != int16(p) {
			// Downgrade the owning chip to update-only; it keeps U copies.
			h.downgradeChip(int(d.owner), line, stateU, t, tx)
			d.sharers |= bit(int(d.owner))
			d.owner = invalidOwner
			d.dirty = true
			d.otype = t
		}
		if d.sharers != 0 {
			if !d.otype.IsUpdate() {
				h.invalidateGlobalSharers(d, line, p, tx)
				h.st.TypeSwitches++
			} else if d.otype != t {
				h.globalReduction(d, line, tx)
				h.st.TypeSwitches++
			}
		}
		if d.sharers&^bit(p) == 0 && d.owner < 0 && hasE {
			// Fig 6: no other chip holds a copy — exclusive chip grant.
			d.owner = int16(p)
			d.sharers = 0
			d.dirty = true
			return stateM
		}
		d.sharers |= bit(p)
		d.otype = t
		return stateU
	}
	panic("unreachable")
}

// downgradeChip demotes chip q's copy to S or U(t). Its in-chip owner (if
// any) is downgraded the same way; internal copies incompatible with the
// new chip state are reduced (U copies before a read grant) or invalidated
// (S copies before an update grant). The chip keeps its L3 entry.
func (h *hierarchy) downgradeChip(q int, line uint64, to lineState, t ops.Type, tx *txn) {
	ch := h.chips[q]
	e := ch.arr.peek(line)
	if e == nil {
		panic(fmt.Sprintf("sim: L4 thinks chip %d owns %#x but L3 misses", q, line))
	}
	d := e
	newType := ops.Read
	if to == stateU {
		newType = t
	}
	cost := 2 * linkLat
	if d.owner >= 0 {
		h.downgradeCore(q, int(d.owner), line, to, t)
		d.sharers |= bit(int(d.owner))
		d.owner = invalidOwner
		d.otype = newType
		d.dirty = true
		cost += invalRTT
	} else if d.sharers != 0 && d.otype != newType {
		sub := txn{now: tx.now}
		if d.otype.IsUpdate() {
			// Internal partial updates must be reduced before the chip's
			// permission weakens (hierarchical reduction, Sec 3.2).
			h.reduceChipCores(ch, d, line, &sub, &sub.bd.L4Inval)
		} else {
			// Internal read-only copies cannot survive an update-only grant.
			h.invalidateChipSharers(ch, d, line, &sub, &sub.bd.L4Inval)
		}
		cost += sub.now - tx.now
		d.otype = newType
	}
	d.cstate = to
	h.st.Downgrades++
	h.offChip(dataBytes)
	tx.adv(cost, &tx.bd.L4Inval)
}

// invalidateChip removes chip q's copy entirely (the L3 entry plus all core
// copies), folding partial updates. The entry goes first, in the one scan
// of its set, and the recall reads its copy: invalidateCore never reads
// the L3 array.
func (h *hierarchy) invalidateChip(q int, line uint64, tx *txn) {
	e, ok := h.chips[q].arr.invalidate(line)
	if !ok {
		panic(fmt.Sprintf("sim: L4 thinks chip %d holds %#x but L3 misses", q, line))
	}
	cost := 2 * linkLat
	if e.hasChildren() {
		cost += invalRTT
	}
	nU := h.recallCores(q, &e, line)
	if nU > 0 {
		// Hierarchical reduction: the chip's reduction unit aggregates its
		// cores' partials before one response crosses the link (Sec 3.2).
		cost += h.reduceCycles(nU)
	}
	h.st.Invalidations++
	if e.dirty || e.cstate == stateU || nU > 0 {
		h.offChip(dataBytes)
	} else {
		h.offChip(ctrlBytes)
	}
	tx.adv(cost, &tx.bd.L4Inval)
}

// invalidateGlobalSharers invalidates every sharer chip except keep (the
// requester, which upgrades in place; keep == -1 clears every sharer) and
// returns how many it invalidated. Chips are invalidated in parallel; the
// critical path is the slowest chip plus a per-chip fan-out cycle.
func (h *hierarchy) invalidateGlobalSharers(d *dirLine, line uint64, keep int, tx *txn) (n int) {
	var maxEnd uint64
	// The requester chip's own non-exclusive copies are handled by the
	// in-chip resolution step; here it just upgrades.
	for rem := d.sharers &^ bit(keep); rem != 0; rem &= rem - 1 {
		sub := txn{now: tx.now}
		h.invalidateChip(bits.TrailingZeros64(rem), line, &sub)
		maxEnd = max(maxEnd, sub.now)
		n++
	}
	d.sharers &= bit(keep)
	if n > 0 {
		tx.waitUntil(maxEnd+uint64(n-1), &tx.bd.L4Inval)
	}
	return n
}

// globalReduction gathers and reduces every chip's partial updates
// (hierarchically: each chip aggregates its own cores first), leaving the
// line uncached below the L4.
func (h *hierarchy) globalReduction(d *dirLine, line uint64, tx *txn) {
	n := h.invalidateGlobalSharers(d, line, -1, tx)
	if n == 0 {
		return
	}
	h.st.FullReductions++
	if h.cfg.FlatReductions {
		// Ablation: no per-chip aggregation; one partial per core instead.
		n *= h.cfg.CoresPerChip
	}
	// The L4 reduction unit folds the per-chip partials.
	h.l4.bank(line).reduce(tx, h.reduceCycles(n), &tx.bd.L4Inval)
	d.dirty = true
}

// evictL4Line recalls a line from every chip and writes it back to memory
// if dirty. Off the critical path.
func (h *hierarchy) evictL4Line(line uint64, d *dirLine) {
	var scratch txn
	for rem := d.children(); rem != 0; rem &= rem - 1 {
		h.invalidateChip(bits.TrailingZeros64(rem), line, &scratch)
	}
	// A recalled owner chip may have written the line.
	if d.dirty || d.owner >= 0 {
		h.memWriteBackground(line)
	}
}

// fillL4 allocates line's L4 entry, recalling the victim it evicts, and
// returns the entry.
func (h *hierarchy) fillL4(line uint64) *dirLine {
	s, vtag, vp, evicted := h.l4.arr.insert(line)
	if evicted {
		h.evictL4Line(vtag, &vp)
	}
	*s = dirLine{owner: invalidOwner}
	return s
}

// memAccess charges a critical-path DRAM access.
func (h *hierarchy) memAccess(line uint64, tx *txn) {
	h.st.MemAccs++
	ch := h.l4.channel(line)
	tx.waitUntil(*ch, &tx.bd.Mem)
	*ch = tx.now + memChannelService
	tx.adv(memLat+h.jitter(), &tx.bd.Mem)
	h.st.MemBytes += 64
}

// memAccessBackground models a fill that is not on the critical path (the
// update-only grant does not wait for data, Sec 2.1's "updates need not
// read the data they update").
func (h *hierarchy) memAccessBackground(line uint64) {
	h.st.MemAccs++
	ch := h.l4.channel(line)
	*ch += memChannelService
	h.st.MemBytes += 64
}

func (h *hierarchy) memWriteBackground(line uint64) {
	ch := h.l4.channel(line)
	*ch += memChannelService
	h.st.MemBytes += 64
}

// rmoUpdate executes a commutative update remotely at the line's home L4
// bank (Fig 1b): no caching by the updater, every update crosses the
// network, and the bank ALU is the serialization point.
func (h *hierarchy) rmoUpdate(c *core, r *request) uint64 {
	line := r.addr >> 6
	tx := txn{now: c.time}
	tx.adv(l1Lat, &tx.bd.L1)

	// Drop any local copy; remote updates do not cache.
	pc := h.priv[c.id]
	if _, ok := pc.l2.invalidate(line); ok {
		pc.l1.invalidate(line)
		if e := h.chips[c.chip].arr.peek(line); e != nil {
			ci := c.id % h.cfg.CoresPerChip
			e.sharers &^= bit(ci)
			if e.owner == int16(ci) {
				e.owner = invalidOwner
			}
		}
	}

	b := h.l4.bank(line)
	tx.adv(2*linkLat, &tx.bd.Net)
	tx.waitUntil(b.lineBusy.get(line), &tx.bd.L4Inval)
	tx.waitUntil(b.busyUntil, &tx.bd.L4)
	b.busyUntil = tx.now + dirBankService
	tx.adv(l4Lat, &tx.bd.L4)
	h.offChip(ctrlBytes + 8) // address + operand

	ge := h.l4.arr.probe(line)
	if ge == nil {
		h.memAccess(line, &tx)
		ge = h.fillL4(line)
	} else if ge.hasChildren() {
		// Invalidate cached copies so the remote ALU operates on the only
		// valid version.
		if ge.owner >= 0 {
			h.invalidateChip(int(ge.owner), line, &tx)
			ge.owner = invalidOwner
		}
		h.invalidateGlobalSharers(ge, line, -1, &tx)
	}
	// Remote ALU occupancy: this is the hotspot RMOs suffer from. The wait
	// for the ALU counts as contention, its two cycles as bank time.
	tx.waitUntil(b.redBusy, &tx.bd.L4Inval)
	b.reduce(&tx, 2, &tx.bd.L4)
	ge.dirty = true

	w := (r.addr >> 3) & 7
	ln := h.store.lineOf(r.addr)
	ln[w] = ops.ApplyAt(r.otype, ln[w], uint(r.addr&7), r.val)
	b.lineBusy.put(line, tx.now, h.now)

	h.st.Breakdown.add(tx.bd)
	return tx.now - c.time
}

// drain folds every outstanding private partial-update buffer into the
// backing image so post-run inspection sees final values. It models the
// reductions that the first post-run reads would trigger; no timing cost.
func (h *hierarchy) drain() {
	for _, pc := range h.priv {
		pc.l2.forEach(func(tag uint64, p *privLine) {
			if p.state == stateU && p.buf != 0 {
				h.foldBufferAt(pc, tag, p)
				// Keep the line resident in U with a fresh identity buffer so
				// structural invariants still hold after draining.
				p.buf = pc.newBuf(p.otype)
			}
		})
	}
}

// checkInvariants validates the hierarchy's structural invariants; tests
// call this through Machine.CheckInvariants.
func (h *hierarchy) checkInvariants() error {
	// Private states must be mirrored by the chip directory, chip entries
	// by the global directory, and exclusivity must be unique.
	for cid, pc := range h.priv {
		chip := cid / h.cfg.CoresPerChip
		ci := cid % h.cfg.CoresPerChip
		var err error
		pc.l2.forEach(func(tag uint64, p *privLine) {
			if err != nil {
				return
			}
			e := h.chips[chip].arr.peek(tag)
			if e == nil {
				err = fmt.Errorf("core %d holds %#x in %v but L3 has no entry", cid, tag, p.state)
				return
			}
			switch p.state {
			case stateM, stateE:
				if e.owner != int16(ci) {
					err = fmt.Errorf("core %d holds %#x in %v but dir owner=%d", cid, tag, p.state, e.owner)
				}
			case stateS:
				if e.sharers&bit(ci) == 0 || e.otype.IsUpdate() {
					err = fmt.Errorf("core %d holds %#x in S but dir sharers=%#x type=%v", cid, tag, e.sharers, e.otype)
				}
			case stateU:
				if e.sharers&bit(ci) == 0 || e.otype != p.otype {
					err = fmt.Errorf("core %d holds %#x in U(%v) but dir sharers=%#x type=%v", cid, tag, p.otype, e.sharers, e.otype)
				}
				if p.buf == 0 {
					err = fmt.Errorf("core %d U line %#x has no buffer", cid, tag)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	// L3 entries must appear in the L4 directory, every core an L3 entry
	// names must hold the line, and U-mode lines must have a single
	// operation type across all caches.
	for q, ch := range h.chips {
		var err error
		ch.arr.forEach(func(tag uint64, d *dirLine) {
			if err != nil {
				return
			}
			for rem := d.children(); rem != 0; rem &= rem - 1 {
				cid := q*h.cfg.CoresPerChip + bits.TrailingZeros64(rem)
				if cid >= len(h.priv) || h.priv[cid].l2.peek(tag) == nil {
					err = fmt.Errorf("chip %d directory names core %d on %#x but its L2 misses", q, cid, tag)
					return
				}
			}
			ge := h.l4.arr.peek(tag)
			if ge == nil {
				err = fmt.Errorf("chip %d caches %#x but L4 has no entry", q, tag)
				return
			}
			switch d.cstate {
			case stateM, stateE:
				if ge.owner != int16(q) {
					err = fmt.Errorf("chip %d exclusive on %#x but L4 owner=%d", q, tag, ge.owner)
				}
			case stateS, stateU:
				if ge.sharers&bit(q) == 0 {
					err = fmt.Errorf("chip %d shares %#x but L4 sharers=%#x", q, tag, ge.sharers)
				}
			}
			// Exclusivity within the chip.
			if d.owner >= 0 && d.sharers != 0 {
				err = fmt.Errorf("chip %d line %#x has owner %d and sharers %#x", q, tag, d.owner, d.sharers)
			}
		})
		if err != nil {
			return err
		}
	}
	// Global exclusivity, the SWMR analogue: a chip owner excludes sharer
	// chips. Each tag occurs once in the L4 array, so this is a check per
	// entry. Report the lowest violating tag so a broken run always
	// produces the same error text. Every chip an L4 entry names must hold
	// the line in its L3.
	var bad *dirLine
	var badTag uint64
	var err error
	h.l4.arr.forEach(func(tag uint64, d *dirLine) {
		if d.owner >= 0 && d.sharers != 0 && (bad == nil || tag < badTag) {
			bad, badTag = d, tag
		}
		for rem := d.children(); rem != 0 && err == nil; rem &= rem - 1 {
			q := bits.TrailingZeros64(rem)
			if q >= len(h.chips) || h.chips[q].arr.peek(tag) == nil {
				err = fmt.Errorf("L4 directory names chip %d on %#x but its L3 misses", q, tag)
			}
		}
	})
	if bad != nil {
		return fmt.Errorf("line %#x violates global exclusivity: owner chip %d and sharer chips %#x", badTag, bad.owner, bad.sharers)
	}
	return err
}

// CheckInvariants validates structural coherence invariants (inclusion,
// directory/cache agreement, exclusivity). Primarily for tests.
func (m *Machine) CheckInvariants() error { return m.hier.checkInvariants() }
