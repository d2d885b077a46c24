package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// slotScan appends every valid way of a to lines and pays, read from the
// slots of every set, filled or not, in set-major order: the reference
// that forEach, which reads only the sets its bitmap marks, must match.
func slotScan[P any](a *array[P], lines []uint64, pays []*P) ([]uint64, []*P) {
	for s := uint64(0); s <= a.setMask; s++ {
		pg, base, n := a.slots(s)
		if emptyWays(pg.words[base : base+n]) {
			continue
		}
		for i := base; i < base+n; i++ {
			if x := pg.words[i]; x != 0 {
				lines = append(lines, uint64(uint32(x)&^validBit)<<a.setBits|s)
				pays = append(pays, &pg.pay[i])
			}
		}
	}
	return lines, pays
}

// emptyWays reports whether ws holds only empty ways. It compares ws's
// bytes with zeros in one call rather than word by word, which keeps a
// scan of every set cheap under the fuzzer's per-comparison hooks.
func emptyWays(ws []uint64) bool {
	if len(ws) == 0 {
		return true
	}
	return bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), 8*len(ws)), zeroWays[:8*len(ws)])
}

var zeroWays [8 * maxWays]byte

// stepLabel names a model step in failure messages. It is formatted only
// when a check fails.
type stepLabel struct {
	step int
	op   string
	line uint64
}

func (l stepLabel) String() string {
	if l.op == "reset" {
		return fmt.Sprintf("step %d: reset", l.step)
	}
	return fmt.Sprintf("step %d: %s %#x", l.step, l.op, l.line)
}

// listings holds what one model step lists of the array and of the
// model, kept from step to step so that a step's checks allocate nothing.
type listings struct {
	lines, scanLines, wantLines []uint64
	slots, scanSlots            []*int
	wantPays                    []int
}

// check fails unless forEach yields the lines and payloads ref holds, in
// the model's order, and exactly the valid ways a full slot scan finds, in
// the same order and at the same slots.
func (l *listings) check(t *testing.T, a *array[int], ref *refArray, step stepLabel) {
	l.lines, l.slots = l.lines[:0], l.slots[:0]
	a.forEach(func(tag uint64, p *int) {
		l.lines = append(l.lines, tag)
		l.slots = append(l.slots, p)
	})
	l.wantLines, l.wantPays = ref.contents(l.wantLines[:0], l.wantPays[:0])
	same := slices.Equal(l.lines, l.wantLines)
	for i := 0; same && i < len(l.slots); i++ {
		same = *l.slots[i] == l.wantPays[i]
	}
	if !same {
		pays := make([]int, len(l.slots))
		for i, p := range l.slots {
			pays[i] = *p
		}
		t.Fatalf("%v: forEach yields %#x %v, the model holds %#x %v", step, l.lines, pays, l.wantLines, l.wantPays)
	}
	l.scanLines, l.scanSlots = slotScan(a, l.scanLines[:0], l.scanSlots[:0])
	if !slices.Equal(l.lines, l.scanLines) {
		t.Fatalf("%v: forEach yields lines %#x, slot scan finds %#x", step, l.lines, l.scanLines)
	}
	for i := range l.slots {
		if l.slots[i] != l.scanSlots[i] {
			t.Fatalf("%v: forEach entry %d (line %#x) points at another slot than the scan's", step, i, l.lines[i])
		}
	}
}

// checkReset fails unless every way word and payload the array stores is
// zero — every allocated page of a dense array, or every chunk of a sparse
// one: its blocks in use, its freed blocks and the uncut tail — no set is
// marked and the clock is back at zero.
func checkReset(t *testing.T, a *array[int], step stepLabel) {
	t.Helper()
	for pi, pg := range append(append([]arrayPage[int]{a.none}, a.pages...), a.chunks...) {
		for i := range pg.words {
			if pg.words[i] != 0 || pg.pay[i] != 0 {
				t.Fatalf("%v: page %d slot %d holds word %#x, payload %d after reset", step, pi, i, pg.words[i], pg.pay[i])
			}
		}
	}
	for wi, w := range a.touched {
		if w != 0 {
			t.Fatalf("%v: touched word %d is %#x after reset", step, wi, w)
		}
	}
	if a.tick != 0 {
		t.Fatalf("%v: tick %d after reset", step, a.tick)
	}
}

// refArray is the reference model of array: every set a plain slice of
// its ways, each holding a full line address. A fill takes the lowest
// empty way or, once every way is valid, the way with the oldest LRU
// stamp; the clock advances on every hit and fill.
type refArray struct {
	ways  int
	nsets uint64
	slots []refWay // set s is slots[s*ways : (s+1)*ways]
	tick  uint64
	// Indexes of the valid ways, for contents: one bit per way of each
	// set (at most 64 ways), and one bit per set that holds a valid way.
	valid, filled []uint64
}

type refWay struct {
	line, lru uint64
	pay       int
	valid     bool
}

func newRefArray(nsets uint64, ways int) *refArray {
	return &refArray{
		ways: ways, nsets: nsets, slots: make([]refWay, nsets*uint64(ways)),
		valid: make([]uint64, nsets), filled: make([]uint64, (nsets+63)/64),
	}
}

func (r *refArray) set(line uint64) []refWay {
	s := line % r.nsets
	return r.slots[s*uint64(r.ways) : (s+1)*uint64(r.ways)]
}

// find returns the way holding line, or -1.
func (r *refArray) find(line uint64) int {
	for w, x := range r.set(line) {
		if x.valid && x.line == line {
			return w
		}
	}
	return -1
}

// victim returns the way a fill of line takes and whether that evicts.
func (r *refArray) victim(line uint64) (int, bool) {
	ws := r.set(line)
	for w := range ws {
		if !ws[w].valid {
			return w, false
		}
	}
	v := 0
	for w := range ws {
		if ws[w].lru < ws[v].lru {
			v = w
		}
	}
	return v, true
}

// insert fills line and returns its way and the way's previous content.
func (r *refArray) insert(line uint64) (int, refWay) {
	w, _ := r.victim(line)
	ws := r.set(line)
	old := ws[w]
	r.setValid(line, w, true)
	r.tick++
	ws[w] = refWay{line: line, lru: r.tick, valid: true}
	return w, old
}

// invalidate removes line and returns its payload and true, or 0 and false
// when line is absent.
func (r *refArray) invalidate(line uint64) (int, bool) {
	w := r.find(line)
	if w < 0 {
		return 0, false
	}
	pay := r.set(line)[w].pay
	r.set(line)[w] = refWay{}
	r.setValid(line, w, false)
	return pay, true
}

// setValid records in the indexes whether way w of line's set is valid.
func (r *refArray) setValid(line uint64, w int, valid bool) {
	s := line % r.nsets
	r.valid[s] &^= 1 << w
	if valid {
		r.valid[s] |= 1 << w
	}
	r.filled[s/64] &^= 1 << (s % 64)
	if r.valid[s] != 0 {
		r.filled[s/64] |= 1 << (s % 64)
	}
}

// reset empties every set and restarts the clock.
func (r *refArray) reset() {
	clear(r.slots)
	clear(r.valid)
	clear(r.filled)
	r.tick = 0
}

// contents appends the valid ways' lines and payloads to lines and pays
// in set-major order. It reads only the valid ways.
func (r *refArray) contents(lines []uint64, pays []int) ([]uint64, []int) {
	for i, f := range r.filled {
		for ; f != 0; f &= f - 1 {
			s := i*64 + bits.TrailingZeros64(f)
			for v := r.valid[s]; v != 0; v &= v - 1 {
				x := r.slots[s*r.ways+bits.TrailingZeros64(v)]
				lines = append(lines, x.line)
				pays = append(pays, x.pay)
			}
		}
	}
	return lines, pays
}

// wayOf returns the way of line's set that holds line, or -1: the way a
// fill took, which insert does not report.
func wayOf[P any](a *array[P], line uint64) int {
	pg, base, n := a.setAt(line)
	key := uint32(line>>a.setBits) | validBit
	for w, x := range pg.words[base : base+n] {
		if uint32(x) == key {
			return w
		}
	}
	return -1
}

// arrayCase is an array for the random model steps of runArrayModel. The
// dense cases are 8-way: eager-8way has 16 sets, all on one page, and
// paged-8way has the Table-1 L2's 512 sets on eight pages. The sparse
// cases are 16- and 12-way arrays of 512 sets. In the 512-set cases, half
// of the lines crowd five hot sets, whose slots fill and then evict (a
// sparse set's block first grows to the full associativity), and half
// spread thinly over the first 256 sets, whose first sparse fills reuse
// the blocks that growth frees. Sets 256-447 stay empty, so their pages
// or header groups are never allocated.
type arrayCase struct {
	name   string
	a      *array[int]
	hot    []uint64 // sets that overflow
	cold   uint64   // lines also fall in sets [0, cold), 3 tags each
	sparse bool
	gaps   bool // the lines leave some page or header group unallocated
}

func arrayCases() []arrayCase {
	return []arrayCase{
		{name: "eager-8way", a: newArray[int](16*8*64, 8), hot: []uint64{0, 1, 2, 5, 9, 15}, cold: 16},
		{name: "paged-8way", a: newArray[int](512*8*64, 8), hot: []uint64{0, 63, 64, 200, 511}, cold: 256, gaps: true},
		{name: "lazy-16way", a: newArray[int](512*16*64, 16), hot: []uint64{0, 63, 64, 200, 511}, cold: 256, sparse: true, gaps: true},
		{name: "lazy-12way", a: newArray[int](512*12*64, 12), hot: []uint64{0, 63, 64, 200, 511}, cold: 256, sparse: true, gaps: true},
	}
}

// TestArrayTouchedSets drives random probe, insert, invalidate, peek and
// reset steps into an array and into refArray, which knows nothing of
// layouts. Every step must return the same hits, filled ways, victims and
// payloads; afterwards forEach must yield the model's lines in the model's
// order, a full slot scan must agree with forEach, which reads only the
// sets the touched bitmap marks, and reset must leave every stored slot
// zero and keep every page, header group and chunk allocated.
func TestArrayTouchedSets(t *testing.T) {
	for _, tc := range arrayCases() {
		t.Run(tc.name, func(t *testing.T) { checkModelRun(t, tc, runArrayModel(t, tc, 7, 0)) })
	}
}

// TestArrayLRUWrap runs the model steps with the array's 32-bit LRU clock
// set 200 steps below its wrap at the start and after every reset, while
// refArray's 64-bit clock runs on. Each wrap renumbers the array's stamps;
// hits, filled ways and victims must still match the model's, also after
// a wrap that found a set full.
func TestArrayLRUWrap(t *testing.T) {
	for _, tc := range arrayCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := runArrayModel(t, tc, 7, 200)
			checkModelRun(t, tc, run)
			if run.wraps < 3 || run.full == 0 {
				t.Fatalf("%d wraps, %d with a full set; want at least 3 and 1", run.wraps, run.full)
			}
		})
	}
}

// FuzzArrayModel runs the model steps of every array case from a fuzzed
// seed, with the clock left steps below its wrap (not armed at 0). Each
// step must agree with the model; the floors on what a run exercises stay
// with the fixed-seed tests above.
func FuzzArrayModel(f *testing.F) {
	f.Add(uint64(7), uint32(200))
	f.Fuzz(func(t *testing.T, seed uint64, left uint32) {
		for _, tc := range arrayCases() {
			runArrayModel(t, tc, seed, left)
		}
	})
}

// modelRun counts what one runArrayModel run exercised.
type modelRun struct {
	fills, evictions int
	reuses           int             // fills that took a freed block
	grownTo          map[uint64]bool // block sizes a fill grew a set to
	wraps, full      int             // clock wraps, and those that found a hot set full
}

// checkModelRun fails unless run filled and evicted enough; on a sparse
// case, grew a block to every size and reused a freed block; and, on a
// case with gaps, left some page or header group unallocated. Pages and
// header groups survive reset, so one unallocated now was never allocated.
func checkModelRun(t *testing.T, tc arrayCase, run modelRun) {
	t.Helper()
	a := tc.a
	if run.fills < 1000 || run.evictions < 50 {
		t.Fatalf("only %d fills and %d evictions in 6000 steps", run.fills, run.evictions)
	}
	if n := heldPages(a); tc.gaps && n == len(a.pages)+len(a.groups) {
		t.Errorf("all %d pages or header groups allocated; the lines should leave some untouched", n)
	}
	if !tc.sparse {
		return
	}
	for n := uint64(1); ; n = min(2*n, uint64(a.ways)) {
		if !run.grownTo[n] {
			t.Errorf("no block grew to %d ways", n)
		}
		if n == uint64(a.ways) {
			break
		}
	}
	if run.reuses == 0 {
		t.Error("no fill reused a freed block")
	}
}

// heldPages counts a's allocated pages, or its allocated header groups:
// a dense array has no header groups, a sparse one no pages.
func heldPages(a *array[int]) int {
	n := 0
	for _, pg := range a.pages {
		if len(pg.words) > 0 {
			n++
		}
	}
	for _, g := range a.groups {
		if g != nil {
			n++
		}
	}
	return n
}

// runArrayModel checks tc.a against refArray over 6000 random steps drawn
// from seed. A probe that misses leaves its line pending, and a later step
// inserts it, as the hierarchy fills after a miss. With left > 0 it sets
// the array's clock left steps below its wrap at the start and after every
// reset, and the model's clock to the same value.
func runArrayModel(t *testing.T, tc arrayCase, seed uint64, left uint32) modelRun {
	t.Helper()
	a := tc.a
	if sparse := a.groups != nil; sparse != tc.sparse {
		t.Fatalf("sparse layout %v, the case needs %v", sparse, tc.sparse)
	}
	nsets := a.setMask + 1
	ref := newRefArray(nsets, a.ways)
	wrapped := false
	arm := func() {
		if left > 0 {
			a.tick = math.MaxUint32 - left
			ref.tick = uint64(a.tick)
			wrapped = false
		}
	}
	arm()
	r := newRNG(seed)
	line := func() uint64 {
		if r.intn(2) == 0 {
			return r.intn(2*uint64(a.ways))*nsets + tc.hot[r.intn(uint64(len(tc.hot)))]
		}
		return r.intn(3)*nsets + r.intn(tc.cold)
	}
	var pending uint64 // a line whose probe missed
	hasPending := false
	run := modelRun{grownTo: map[uint64]bool{}}
	var ls listings
	free := make([]int, len(a.free))
	// fill checks one insert of ln against the model and stamps the new
	// way's payload.
	fill := func(what stepLabel, ln uint64) {
		_, _, n0 := a.setAt(ln)
		for c, f := range a.free {
			free[c] = len(f)
		}
		p, vtag, vp, ev := a.insert(ln)
		way := wayOf(a, ln)
		w, old := ref.insert(ln)
		if way != w || p != a.peek(ln) || ev != old.valid || ev && (vtag != old.line || vp != old.pay) {
			t.Fatalf("%v: way %d, evicted %v (line %#x, payload %d); the model fills way %d over %+v", what, way, ev, vtag, vp, w, old)
		}
		run.fills++
		*p = run.fills
		ref.set(ln)[w].pay = *p
		if ev {
			run.evictions++
		}
		if _, _, n := a.setAt(ln); n != n0 {
			run.grownTo[n] = true
		}
		for c, f := range a.free {
			if len(f) < free[c] {
				run.reuses++
			}
		}
	}
	for step := 0; step < 6000; step++ {
		var what stepLabel
		switch op := r.intn(1000); {
		case op < 300:
			ln := line()
			what = stepLabel{step, "probe", ln}
			p := a.probe(ln)
			if w := ref.find(ln); w >= 0 {
				ref.tick++
				ref.set(ln)[w].lru = ref.tick
				if p == nil || *p != ref.set(ln)[w].pay || wayOf(a, ln) != w {
					t.Fatalf("%v: got %v at way %d, the model hits way %d", what, p, wayOf(a, ln), w)
				}
				break
			}
			if p != nil {
				t.Fatalf("%v: got %v, the model misses", what, p)
			}
			pending, hasPending = ln, true
		case op < 550:
			if !hasPending || ref.find(pending) >= 0 {
				hasPending = false
				continue
			}
			what, hasPending = stepLabel{step, "insert pending", pending}, false
			fill(what, pending)
		case op < 800:
			ln := line()
			if ref.find(ln) >= 0 {
				continue
			}
			what = stepLabel{step, "insert", ln}
			fill(what, ln)
		case op < 920:
			ln := line()
			what = stepLabel{step, "invalidate", ln}
			tick := a.tick
			p, ok := a.invalidate(ln)
			wp, wok := ref.invalidate(ln)
			if p != wp || ok != wok || a.tick != tick {
				t.Fatalf("%v: got (%d, %v) with tick %d → %d; the model removes (%d, %v) and keeps the tick", what, p, ok, tick, a.tick, wp, wok)
			}
		case op < 998:
			ln := line()
			what = stepLabel{step, "peek", ln}
			p := a.peek(ln)
			if w := ref.find(ln); (p != nil) != (w >= 0) || w >= 0 && *p != ref.set(ln)[w].pay {
				t.Fatalf("%v: got %v, the model finds way %d", what, p, w)
			}
		default:
			what, hasPending = stepLabel{step: step, op: "reset"}, false
			pages, chunks := heldPages(a), len(a.chunks)
			a.reset()
			ref.reset()
			checkReset(t, a, what)
			if heldPages(a) != pages || len(a.chunks) != chunks {
				t.Fatalf("%v: %d pages or header groups and %d chunks before, %d and %d after", what, pages, chunks, heldPages(a), len(a.chunks))
			}
			arm()
		}
		if ref.tick <= math.MaxUint32 && uint64(a.tick) != ref.tick {
			t.Fatalf("%v: tick %d, the model's %d", what, a.tick, ref.tick)
		}
		if ref.tick > math.MaxUint32 && !wrapped {
			wrapped = true
			run.wraps++
			for _, s := range tc.hot {
				if _, ev := ref.victim(s); ev {
					run.full++
					break
				}
			}
		}
		ls.check(t, a, ref, what)
	}
	final := stepLabel{step: 6000, op: "reset"}
	a.reset()
	ref.reset()
	checkReset(t, a, final)
	ls.check(t, a, ref, final)
	return run
}

// TestSlotBudget pins what one slot of each cache array costs, its way
// word plus its payload, and that nothing the arrays or the buffer slabs
// store holds a pointer, which would make the garbage collector scan them.
func TestSlotBudget(t *testing.T) {
	for _, c := range []struct {
		level     string
		got, want uintptr
	}{
		{"L1", slotBytes[struct{}](), 8},
		{"L2", slotBytes[privLine](), 16},
		{"L3/L4", slotBytes[dirLine](), 24},
	} {
		if c.got != c.want {
			t.Errorf("an %s slot costs %d bytes, want %d", c.level, c.got, c.want)
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[privLine](),
		reflect.TypeFor[dirLine](),
		reflect.TypeOf(arrayPage[privLine]{}.words).Elem(),
		reflect.TypeFor[bufPage](),
	} {
		if !pointerFree(typ) {
			t.Errorf("%v holds a pointer, slice, map, string, interface, func or chan", typ)
		}
	}
}

func slotBytes[P any]() uintptr {
	var pg arrayPage[P]
	return unsafe.Sizeof(pg.words[0]) + unsafe.Sizeof(pg.pay[0])
}

// pointerFree reports whether a value of type t holds no pointer, slice,
// map, string, interface, func or chan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return false
	}
	return true
}
