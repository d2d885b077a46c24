package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestDirectoriesHoldFilledWays pins what the directories of a
// footprint-shaped run cost: after a small spmv on the two-chip Table-1
// machine, each L3 and the L4 may hold on average at most two slots per
// set they have filled, plus one chunk. Almost every set of such a run
// holds one line, and a set keeps slots only for the most ways it has
// held, so a Table-1 directory costs memory for the lines it tracks rather
// than for its 16-way capacity.
func TestDirectoriesHoldFilledWays(t *testing.T) {
	w := workloads.NewSpMV(4000, 24, 1)
	m := sim.New(sim.DefaultConfig(32, sim.MEUSI))
	w.Setup(m)
	m.Run(w.Kernel)
	if err := w.Validate(m); err != nil {
		t.Fatal(err)
	}
	held, filled := sim.DirFootprint(m)
	for i := range held {
		name := "L4"
		if i < len(held)-1 {
			name = fmt.Sprintf("chip %d L3", i)
		}
		if filled[i] == 0 {
			t.Errorf("%s: no set filled", name)
			continue
		}
		t.Logf("%s: %d slots for %d filled sets (%.2f per set)", name, held[i], filled[i], float64(held[i])/float64(filled[i]))
		if held[i] > 2*filled[i]+sim.ChunkSlots {
			t.Errorf("%s holds %d slots for %d filled sets; at most %d allowed", name, held[i], filled[i], 2*filled[i]+sim.ChunkSlots)
		}
	}
}

// TestPrivateArraysHoldTouchedPages pins what the private L2s cost. A
// Table-1 L2 has eight 64-set pages, each allocated on its first fill.
// After a 16-counter refcount on 64 cores, whose cores each touch a
// handful of lines, every L2 may hold at most two pages (runs at 128
// cores fill one); after a small spmv, whose cores stream through more
// lines than an L2 holds, every L2 holds all eight.
func TestPrivateArraysHoldTouchedPages(t *testing.T) {
	for _, tc := range []struct {
		name        string
		w           workloads.Workload
		cores       int
		least, most int // pages each L2 may hold
	}{
		{"refcount", workloads.NewRefCount(16, 100, false, workloads.RefPlain, 1), 64, 1, 2},
		{"spmv", workloads.NewSpMV(4000, 24, 1), 32, 8, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := sim.New(sim.DefaultConfig(tc.cores, sim.MEUSI))
			tc.w.Setup(m)
			m.Run(tc.w.Kernel)
			if err := tc.w.Validate(m); err != nil {
				t.Fatal(err)
			}
			allocated, pages := sim.L2Pages(m)
			t.Logf("pages allocated per L2 (of %d): %v", pages, allocated)
			for c, n := range allocated {
				if n < tc.least || n > tc.most {
					t.Errorf("core %d's L2 holds %d of its %d pages; want %d to %d", c, n, pages, tc.least, tc.most)
				}
			}
		})
	}
}
