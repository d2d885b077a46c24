package exp

import (
	"fmt"
	"runtime"

	"repro/internal/stats"
	"repro/internal/swbench"
	"repro/pkg/coup"
)

func init() {
	register("figsw",
		"software-vs-simulation cross-validation: pkg/commute on the real machine next to MESI-vs-MEUSI on the simulator, same workload shapes",
		figsw)
}

// figsw is the repo's first hardware-vs-simulation cross-validation: the
// same two workload shapes — the Fig 1 maximally-contended counter and
// the Fig 2 shared histogram — run twice. On the simulator, MESI
// (atomics) against MEUSI (COUP), in simulated cycles; on the real
// machine, the shared-atomic baseline against pkg/commute's sharded
// structures, in wall-clock ns/op. Each table pairs the two speedup
// columns so the shapes can be compared directly: both mechanisms
// privatize commutative updates and pay a reduction on reads, so both
// should win where update contention dominates (many threads, few hot
// lines) and fade where it does not (one thread, or GOMAXPROCS exhausted).
//
// The x-axes differ in nature — simulated cores are real parallel
// hardware, software threads beyond the host's GOMAXPROCS only
// time-share — so the table records GOMAXPROCS and the absolute numbers
// rather than pretending the rows are the same machine.
func figsw(p Params) []*stats.Table {
	sweep := p.coreSweep()

	// Simulated side: one grid, fanned out in one parallel sweep.
	g := newGrid(p)
	type cell struct{ mesi, coup *point }
	simCounter := make([]cell, len(sweep))
	simHist := make([]cell, len(sweep))
	counterMk := workload("counter", counterParams(p))
	histMk := histWorkload(p, figswBins, "hist")
	for i, c := range sweep {
		simCounter[i] = cell{mesi: g.add(counterMk, c, "MESI"), coup: g.add(counterMk, c, "MEUSI")}
		simHist[i] = cell{mesi: g.add(histMk, c, "MESI"), coup: g.add(histMk, c, "MEUSI")}
	}
	g.run()

	// Software side: same shapes on the host, serially (the measurement
	// needs the CPUs to itself). Thread counts mirror the core sweep.
	swOps := p.scaleInt(200_000)
	reps := p.Reps
	if reps < 1 {
		reps = 1
	}
	type swCell struct{ atomicNs, commuteNs float64 }
	var worstSwCI float64 // worst ±CI95 relative to its mean, over all sw cells
	measure := func(kind swbench.Kind, impl swbench.Impl, threads int) float64 {
		c := swbench.Config{
			Kind: kind, Impl: impl, Threads: threads, Ops: swOps,
			Cells: 1, Bins: figswBins, ZipfS: 1.07, Seed: 1,
		}
		_, mean, ci, err := swbench.Measure(c, reps)
		if err != nil {
			panic(fmt.Sprintf("exp: figsw: %v", err))
		}
		if mean > 0 && ci/mean > worstSwCI {
			worstSwCI = ci / mean
		}
		return mean
	}
	swFor := func(kind swbench.Kind) []swCell {
		out := make([]swCell, len(sweep))
		for i, th := range sweep {
			out[i] = swCell{
				atomicNs:  measure(kind, swbench.ImplAtomic, th),
				commuteNs: measure(kind, swbench.ImplCommute, th),
			}
		}
		return out
	}
	swCounter := swFor(swbench.KindCounter)
	swHist := swFor(swbench.KindHist)

	mkTable := func(title string, sim []cell, sw []swCell) *stats.Table {
		t := &stats.Table{
			Title: title,
			Headers: []string{"cores/threads",
				"sim MESI cyc", "sim COUP cyc", "sim speedup",
				"sw atomic ns/op", "sw commute ns/op", "sw speedup"},
		}
		pts := make([]*point, 0, 2*len(sim))
		for i, c := range sweep {
			s := sim[i]
			w := sw[i]
			t.AddRow(fmt.Sprint(c),
				stats.F(s.mesi.Cycles), stats.F(s.coup.Cycles), stats.F(s.mesi.Cycles/s.coup.Cycles)+"x",
				stats.F(w.atomicNs), stats.F(w.commuteNs), stats.F(w.atomicNs/w.commuteNs)+"x")
			pts = append(pts, s.mesi, s.coup)
		}
		t.AddNote("sim speedup = MESI/MEUSI simulated cycles; sw speedup = atomic/commute wall-clock ns per update on this host (GOMAXPROCS=%d, %d updates/thread, Zipf s=1.07); sw threads beyond GOMAXPROCS time-share",
			runtime.GOMAXPROCS(0), swOps)
		if reps > 1 {
			t.AddNote("sw cells are means of %d seeded reps; worst-case ±CI95 is %.1f%% of the mean ns/op", reps, worstSwCI*100)
		}
		g.note(t, pts...)
		return t
	}
	return []*stats.Table{
		mkTable("Fig SW-a: contended counter — simulated MESI vs MEUSI next to measured atomic vs pkg/commute", simCounter, swCounter),
		mkTable(fmt.Sprintf("Fig SW-b: shared histogram (%d bins) — simulated next to measured", figswBins), simHist, swHist),
	}
}

// figswBins keeps the simulated and software histograms the same shape.
const figswBins = 512

// counterParams sizes the Fig 1 counter workload for figsw.
func counterParams(p Params) coup.WorkloadParams {
	return coup.WorkloadParams{Size: p.scaleInt(2000), Seed: 3}
}
