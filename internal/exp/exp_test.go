package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/pkg/coup"
)

// updateTables rewrites testdata/quick_tables.txt from the current
// simulator. Run `go test ./internal/exp -run TestTablesGolden -update`
// only when a change is supposed to alter simulated results.
var updateTables = flag.Bool("update", false, "rewrite testdata/quick_tables.txt from the current simulator")

const quickTablesPath = "testdata/quick_tables.txt"

// simulatedExperiments are the experiments whose tables hold simulation
// results only, in the order the nightly full evaluation runs them: every
// experiment but fig8, figsw and figsvc, whose tables carry wall-clock
// columns.
var simulatedExperiments = []string{
	"fig2", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
	"sec55", "traffic", "table2", "ablation",
}

func tinyParams() Params {
	return Params{Scale: 0.02, Reps: 1, MaxCores: 16}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure and table of the paper's evaluation must have a runner,
	// plus figsw, the repo's software-vs-simulation cross-validation.
	want := []string{
		"fig2", "fig8", "fig10", "fig11", "fig12",
		"fig13a", "fig13b", "fig13c",
		"sec55", "traffic", "table2", "ablation",
		"figsw", "figsvc",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("bogus id must not resolve")
	}
}

func TestCoreSweepRespectsCap(t *testing.T) {
	p := DefaultParams()
	p.MaxCores = 32
	sweep := p.coreSweep()
	for _, c := range sweep {
		if c > 32 {
			t.Errorf("sweep includes %d cores beyond the cap", c)
		}
	}
	if len(sweep) != 3 { // 1, 16, 32
		t.Errorf("sweep %v, want [1 16 32]", sweep)
	}
	p.MaxCores = 0
	if got := p.coreSweep(); len(got) != 1 || got[0] != 1 {
		t.Errorf("degenerate sweep %v", got)
	}
}

func TestScaleInt(t *testing.T) {
	p := Params{Scale: 0.1}
	if p.scaleInt(1000) != 100 {
		t.Error("scaleInt wrong")
	}
	if p.scaleInt(1) != 1 {
		t.Error("scaleInt must floor at 1")
	}
	// Regression: truncation collapsed small sweeps (0.3 of 5 floored to 1).
	if got := (Params{Scale: 0.3}).scaleInt(5); got != 2 {
		t.Errorf("scaleInt(5) at 0.3 = %d, want 2 (round, not floor)", got)
	}
	if got := (Params{Scale: 0.3}).scaleInt(10); got != 3 {
		t.Errorf("scaleInt(10) at 0.3 = %d, want 3", got)
	}
}

func TestMeasureValidatesAndAverages(t *testing.T) {
	p := tinyParams()
	p.Reps = 3
	mk := workload("hist", coup.WorkloadParams{Size: 2000, Bins: 64, Seed: 1})
	pt := measure(mk, 4, "MEUSI", p)
	if pt.Cycles <= 0 || pt.Stats.Cycles == 0 {
		t.Fatal("measure returned nothing")
	}
	if pt.CI <= 0 {
		t.Error("three seeded reps with jitter must have a positive CI95")
	}
	// The aggregated stats must be the rep mean, not any single rep: the
	// mean cycle count agrees with the cycles aggregate (within rounding).
	if d := pt.Cycles - float64(pt.Stats.Cycles); d > 0.5 || d < -0.5 {
		t.Errorf("mean stats cycles %d disagree with mean cycles %v", pt.Stats.Cycles, pt.Cycles)
	}
}

// TestGridMatchesMeasure pins the aggregation path: points evaluated
// through a multi-point grid must be identical to one-point measure calls.
func TestGridMatchesMeasure(t *testing.T) {
	p := tinyParams()
	p.Reps = 2
	mk := histWorkload(p, 64, "hist")
	g := newGrid(p)
	a := g.add(mk, 2, "MESI")
	b := g.add(mk, 4, "MEUSI")
	g.run()
	for _, tc := range []struct {
		got   point
		cores int
		proto string
	}{{*a, 2, "MESI"}, {*b, 4, "MEUSI"}} {
		want := measure(mk, tc.cores, tc.proto, p)
		if tc.got != want {
			t.Errorf("grid point (%d cores, %s) = %+v, want %+v", tc.cores, tc.proto, tc.got, want)
		}
	}
}

// TestTablesIdenticalSerialVsParallel is the determinism contract of the
// sweep rewrite: the rendered tables must be byte-identical whether the
// grid runs on one worker or many. It covers every experiment except
// those with measured wall-clock columns, which differ even between two
// serial runs: fig8 (the model checker's verification times), figsw and
// figsvc (the software benchmarks' ns/op).
func TestTablesIdenticalSerialVsParallel(t *testing.T) {
	p := Params{Scale: 0.01, Reps: 2, MaxCores: 8}
	ids := []string{"fig2", "traffic"}
	if !testing.Short() {
		ids = simulatedExperiments
	}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		render := func(parallel int) string {
			pp := p
			pp.Parallel = parallel
			var out string
			for _, tb := range e.Run(pp) {
				out += tb.String() + "\n"
			}
			return out
		}
		serial := render(1)
		parallel := render(8)
		if serial != parallel {
			t.Errorf("%s: tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// TestTablesGolden pins every simulated table at BenchParams, the scale
// of coupbench -quick: a change that moves one cell of one figure fails
// here. The file holds what `coupbench -quick -exp` prints for
// simulatedExperiments, less its "(id in time)" lines.
func TestTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range simulatedExperiments {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		fmt.Fprintf(&b, "### %s — %s\n", e.ID, e.Desc)
		for _, tb := range e.Run(BenchParams()) {
			b.WriteString(tb.String() + "\n")
		}
		b.WriteString("\n")
	}
	got := b.String()
	if *updateTables {
		if err := os.WriteFile(quickTablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickTablesPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		// Report the first line that differs; the last line of each is
		// compared when every line before it matches.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < min(len(gl), len(wl))-1 && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("tables differ from %s at line %d:\n got: %q\nwant: %q", quickTablesPath, i+1, gl[i], wl[i])
	}
}

// TestGridsSimulateEachSpecOnce: a grid simulates each distinct spec
// once. grid.add hands back the registered point for a point the grid
// already holds, however its protocol and options are spelled, and adds
// no specs for it; a point that differs in one more option is a point of
// its own.
func TestGridsSimulateEachSpecOnce(t *testing.T) {
	p := tinyParams()
	p.Reps = 2
	w := histWorkload(p, 64, "hist")
	g := newGrid(p)
	base := g.add(w, 4, "MEUSI")
	slow := g.add(w, 4, "MEUSI", coup.WithReductionALU(16, 16), coup.WithFlatReductions(false))
	if again := g.add(w, 4, "meusi", coup.WithFlatReductions(false), coup.WithReductionALU(16, 16)); again != slow {
		t.Error("the same point with its protocol case and option order changed got a point of its own")
	}
	if again := g.add(w, 4, "Meusi"); again != base {
		t.Error("the same point with its protocol case changed got a point of its own")
	}
	flat := g.add(w, 4, "MEUSI", coup.WithFlatReductions(true))
	if flat == base || flat == slow {
		t.Error("a point with one more option shares another point's specs")
	}
	if want := 3 * g.reps; len(g.pts) != 3 || len(g.specs) != want {
		t.Errorf("grid holds %d points and %d specs, want 3 points and %d specs", len(g.pts), len(g.specs), want)
	}
}

// TestEveryExperimentRunsTiny executes the whole registry at minuscule
// scale: every runner must produce at least one non-empty table without
// panicking (validation failures inside measure panic).
func TestEveryExperimentRunsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	p := tinyParams()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(p)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q has no rows", tb.Title)
				}
				if len(tb.Headers) == 0 {
					t.Errorf("table %q has no headers", tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Headers) {
						t.Errorf("table %q: row width %d != headers %d", tb.Title, len(r), len(tb.Headers))
					}
				}
			}
		})
	}
}
