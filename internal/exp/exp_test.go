package exp

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/coup"
)

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
	wallClock := map[string]bool{"fig8": true, "figsw": true, "figsvc": true}
	ids := []string{"fig2", "traffic"}
	if !testing.Short() {
		ids = ids[:0]
		for _, e := range All() {
			if !wallClock[e.ID] {
				ids = append(ids, e.ID)
			}
		}
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

// TestShardMergeTablesIdentical is the sharding contract end to end:
// running an experiment as four shard processes-worth of jobs (each
// spilling its slice to a result store) and then merging must render
// tables byte-identical to a plain single-process run. It also pins that
// the wall-clock experiments are the exact non-Shardable set.
func TestShardMergeTablesIdentical(t *testing.T) {
	wallClock := map[string]bool{"fig8": true, "figsw": true, "figsvc": true}
	for _, e := range All() {
		if e.Shardable == wallClock[e.ID] {
			t.Errorf("experiment %s: Shardable=%v, want %v", e.ID, e.Shardable, !wallClock[e.ID])
		}
	}

	p := Params{Scale: 0.01, Reps: 2, MaxCores: 8}
	ids := []string{"fig2", "traffic"}
	if !testing.Short() {
		ids = ids[:0]
		for _, e := range All() {
			if e.Shardable {
				ids = append(ids, e.ID)
			}
		}
	}
	render := func(job *coup.SweepJob) map[string]string {
		out := map[string]string{}
		for _, id := range ids {
			e, _ := ByID(id)
			if job != nil {
				if err := job.SetNamespace(id); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
			pp := p
			pp.Job = job
			var s string
			for _, tb := range e.Run(pp) {
				s += tb.String() + "\n"
			}
			out[id] = s
		}
		if job != nil {
			if err := job.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	want := render(nil)
	dir := t.TempDir()
	const shards = 4
	for k := 0; k < shards; k++ {
		job, err := coup.NewShardJob(dir, p.Fingerprint(), k, shards)
		if err != nil {
			t.Fatal(err)
		}
		render(job) // shard mode: tables are unaggregated, ignored
	}
	got := render(coup.NewMergeJob(dir, p.Fingerprint()))
	for _, id := range ids {
		if got[id] != want[id] {
			t.Errorf("%s: merged tables differ from single-process run:\n--- single ---\n%s--- merged ---\n%s",
				id, want[id], got[id])
		}
	}
}

// TestGridsSimulateEachSpecOnce: no shardable experiment simulates one
// spec twice. coup.SpecKeys gives a repeated spec a "#j" ordinal suffix,
// so a 1/1 shard job over every shardable experiment must store no such
// key, at the quick parameters and at the nightly sweep's scale 0.02,
// where small inputs round onto each other.
func TestGridsSimulateEachSpecOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shardable experiment twice")
	}
	nightly := BenchParams()
	nightly.Scale, nightly.Reps = 0.02, 2
	for _, p := range []Params{BenchParams(), nightly} {
		dir := t.TempDir()
		job, err := coup.NewShardJob(dir, p.Fingerprint(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range All() {
			if !e.Shardable {
				continue
			}
			if err := job.SetNamespace(e.ID); err != nil {
				t.Fatal(err)
			}
			pp := p
			pp.Job = job
			e.Run(pp)
		}
		if err := job.Close(); err != nil {
			t.Fatal(err)
		}
		stores, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(stores) == 0 {
			t.Fatalf("no result stores in %s (%v)", dir, err)
		}
		for _, path := range stores {
			_, recs, err := coup.ReadResultStore(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if strings.Contains(r.Key, "#") {
					t.Errorf("%s: %s: spec %s simulated more than once", p.Fingerprint(), filepath.Base(path), r.Key)
				}
			}
		}
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
