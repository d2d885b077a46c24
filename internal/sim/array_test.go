package sim

import (
	"fmt"
	"testing"
)

// slotScan lists every valid way of a by reading every slot of every
// allocated page, in set-major order: the reference that forEach, which
// reads only the sets its bitmap marks, must match.
func slotScan[P any](a *array[P]) (lines []uint64, pays []*P) {
	for pi := range a.pages {
		pg := &a.pages[pi]
		for i, t := range pg.tags {
			if t&validBit != 0 {
				set := uint64(pi)<<a.pageShift + uint64(i)/uint64(a.ways)
				lines = append(lines, uint64(t&^validBit)<<a.setBits|set)
				pays = append(pays, &pg.pay[i])
			}
		}
	}
	return lines, pays
}

// checkForEach fails unless forEach yields exactly the valid ways that a
// full slot scan finds, in the same order.
func checkForEach(t *testing.T, a *array[int], step string) {
	t.Helper()
	wantLines, wantPays := slotScan(a)
	var gotLines []uint64
	var gotPays []*int
	a.forEach(func(tag uint64, p *int) {
		gotLines = append(gotLines, tag)
		gotPays = append(gotPays, p)
	})
	if fmt.Sprint(gotLines) != fmt.Sprint(wantLines) {
		t.Fatalf("%s: forEach yields lines %#x, slot scan finds %#x", step, gotLines, wantLines)
	}
	for i := range gotPays {
		if gotPays[i] != wantPays[i] {
			t.Fatalf("%s: forEach entry %d (line %#x) points at another slot than the scan's", step, i, gotLines[i])
		}
	}
}

// checkReset fails unless every tag, LRU stamp and payload of every
// allocated page is zero and no set is marked.
func checkReset(t *testing.T, a *array[int], step string) {
	t.Helper()
	for pi, pg := range a.pages {
		for i := range pg.tags {
			if pg.tags[i] != 0 || pg.lru[i] != 0 || pg.pay[i] != 0 {
				t.Fatalf("%s: page %d slot %d holds tag %#x, lru %d, payload %d after reset", step, pi, i, pg.tags[i], pg.lru[i], pg.pay[i])
			}
		}
	}
	for wi, w := range a.touched {
		if w != 0 {
			t.Fatalf("%s: touched word %d is %#x after reset", step, wi, w)
		}
	}
	if a.tick != 0 {
		t.Fatalf("%s: tick %d after reset", step, a.tick)
	}
}

// TestArrayTouchedSets drives arrays through random probe, commit,
// insert, invalidate, invalidateAt and reset steps and checks the touched
// bitmap after each one: forEach must see exactly what a full slot scan
// sees, in the same order, and reset must leave every slot zero. The two
// geometries are a small eager 8-way array and a shrunk, lazily paged
// 16-way array whose lines land in a few sets spread over its pages, so
// most pages stay unallocated.
func TestArrayTouchedSets(t *testing.T) {
	cases := []struct {
		name string
		a    *array[int]
		sets []uint64 // the sets the steps' lines fall in
		tags uint64   // distinct tags per set: more than ways, so sets overflow
	}{
		{name: "eager-8way", a: newArray[int](16*8*64, 8), sets: []uint64{0, 1, 2, 5, 9, 15}, tags: 12},
		{name: "lazy-16way", a: newArray[int](512*16*64, 16), sets: []uint64{0, 63, 64, 200, 511}, tags: 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if lazy := len(a.pages) > 1; lazy != (tc.name == "lazy-16way") {
				t.Fatalf("geometry has %d pages; the case needs it eager or lazy as named", len(a.pages))
			}
			nsets := a.setMask + 1
			r := newRNG(7)
			line := func() uint64 { return r.intn(tc.tags)*nsets + tc.sets[r.intn(uint64(len(tc.sets)))] }
			var pending uint64 // a line whose missing probe staged a fill
			var pendH slotRef
			hasPending := false
			fills := 0
			for step := 0; step < 4000; step++ {
				var what string
				switch op := r.intn(100); {
				case op < 30:
					ln := line()
					p, h := a.probe(ln)
					what = fmt.Sprintf("probe %#x", ln)
					if p == nil {
						pending, pendH, hasPending = ln, h, true
					}
				case op < 55:
					if !hasPending || a.peek(pending) != nil {
						hasPending = false
						continue
					}
					p, _, _, _, _ := a.commit(pending, pendH)
					*p = step + 1
					what, hasPending = fmt.Sprintf("commit %#x", pending), false
					fills++
				case op < 75:
					ln := line()
					if a.peek(ln) != nil {
						continue
					}
					p, _, _, _, _ := a.insert(ln)
					*p = step + 1
					what = fmt.Sprintf("insert %#x", ln)
					fills++
				case op < 85:
					ln := line()
					a.invalidate(ln)
					what = fmt.Sprintf("invalidate %#x", ln)
				case op < 98:
					ln := line()
					_, h := a.peekSlot(ln)
					if r.intn(2) == 0 {
						a.tick++ // a stale handle takes the rescan path
					}
					a.invalidateAt(ln, h)
					what = fmt.Sprintf("invalidateAt %#x", ln)
				default:
					var want, got []int
					a.forEach(func(_ uint64, p *int) { want = append(want, *p) })
					a.reset(func(p *int) { got = append(got, *p) })
					what, hasPending = "reset", false
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: reset visits payloads %v, forEach saw %v", step, got, want)
					}
					checkReset(t, a, fmt.Sprintf("step %d: reset", step))
				}
				checkForEach(t, a, fmt.Sprintf("step %d: %s", step, what))
			}
			if fills < 1000 {
				t.Fatalf("only %d fills in 4000 steps", fills)
			}
			if len(a.pages) > 1 {
				allocated := 0
				for _, pg := range a.pages {
					if pg.tags != nil {
						allocated++
					}
				}
				if allocated == len(a.pages) {
					t.Errorf("all %d pages allocated; the lines should leave some untouched", allocated)
				}
			}
			a.reset(nil)
			checkReset(t, a, "final reset")
			checkForEach(t, a, "final reset")
		})
	}
}
