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
