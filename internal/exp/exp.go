// Package exp is the experiment harness: one runner per table and figure
// in the paper's evaluation (Sec 5), each regenerating the corresponding
// rows/series on the simulated system. Absolute cycle counts differ from
// the paper's testbed (the simulator stands in for zsim; see package sim);
// the harness exists to reproduce the *shape* of every result: who wins,
// by what factor, and where crossovers fall.
package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
	"repro/pkg/coup"
	"repro/pkg/obs"
)

// Params scales experiments. Scale 1.0 is the full (already
// simulation-sized) configuration; smaller values shrink inputs for quick
// runs and benchmarks. Reps is the number of seeded repetitions per data
// point (Alameldeen-Wood non-determinism injection); MaxCores caps the
// core-count sweeps. Parallel bounds the worker pool fanning independent
// simulations out (0 = GOMAXPROCS); it affects wall-clock time only,
// never results.
type Params struct {
	Scale    float64
	Reps     int
	MaxCores int
	Parallel int
	// Progress, when non-nil, receives live sweep metrics (specs done,
	// busy time, arena warm/cold counts) via coup.WithSweepMetrics.
	// Because sweepers are cached per parallelism degree for the whole
	// process, the registry of the FIRST run at a given parallelism wins;
	// harnesses (cmd/coupbench) use one process-wide registry, so this
	// never bites in practice. Progress affects telemetry only, never
	// results.
	Progress *obs.Registry
	// Job, when non-nil, routes every grid sweep through the shard/
	// resume/merge job model: a shard job runs only its round-robin slice
	// of each grid (spilling results to its store, leaving the rest zero
	// and the tables unaggregated), a merge job resolves every grid from
	// the shard stores and yields the same tables a single-process run
	// produces. Only Shardable experiments honor it — the harness must
	// set the job's namespace to the experiment id before Run. Grids are
	// enumerated identically with or without a Job, so shard membership
	// and store keys are stable across processes.
	Job *coup.SweepJob
}

// Fingerprint digests every Params field that changes the enumerated
// specs — scale, reps, the core cap — for guarding SweepJob stores: a
// store recorded at one parameterization never resumes or merges into
// another. Parallel, Progress and Job are excluded; they never change
// results.
func (p Params) Fingerprint() string {
	return fmt.Sprintf("scale=%g,reps=%d,maxcores=%d", p.Scale, p.Reps, p.MaxCores)
}

// DefaultParams returns the full-run parameters.
func DefaultParams() Params {
	return Params{Scale: 1.0, Reps: 1, MaxCores: 128}
}

// BenchParams returns the benchmark-scale parameters every quick consumer
// shares — the root testing.B benchmarks and coupbench -quick: inputs
// shrunk 20x and core sweeps capped at 32, small enough for tight
// edit-run loops while still exercising every experiment's full code
// path.
func BenchParams() Params {
	p := DefaultParams()
	p.Scale = 0.05
	p.MaxCores = 32
	return p
}

func (p Params) scaleInt(n int) int {
	v := int(math.Round(float64(n) * p.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// coreSweep returns the paper's 1–128 core x-axis, capped by MaxCores.
func (p Params) coreSweep() []int {
	all := []int{1, 16, 32, 64, 96, 128}
	var out []int
	for _, c := range all {
		if c <= p.MaxCores {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// Experiment is one registered, named experiment. Shardable experiments
// derive every data point from deterministic simulation grids, so their
// sweeps can be partitioned across processes and merged (Params.Job);
// the rest measure wall-clock behavior or run serial model checks, which
// only make sense in one process.
type Experiment struct {
	ID        string
	Desc      string
	Shardable bool
	Run       func(p Params) []*stats.Table
}

var registry []Experiment

func register(id, desc string, run func(p Params) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Desc: desc, Shardable: true, Run: run})
}

// registerSerial registers an experiment that cannot shard: its results
// come from wall-clock measurement or serial exploration rather than a
// deterministic simulation grid.
func registerSerial(id, desc string, run func(p Params) []*stats.Table) {
	registry = append(registry, Experiment{ID: id, Desc: desc, Run: run})
}

// All returns every registered experiment, sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment, case-insensitively and ignoring
// surrounding whitespace.
func ByID(id string) (Experiment, bool) {
	id = strings.TrimSpace(id)
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Listing returns one "id — description" line per registered experiment,
// sorted by id, so listings and unknown-id errors show what each
// experiment is rather than bare names.
func Listing() []string {
	all := All()
	lines := make([]string, len(all))
	for i, e := range all {
		lines[i] = fmt.Sprintf("%-10s %s", e.ID, e.Desc)
	}
	return lines
}

// point is one aggregated data point: the mean cycle count and the CI95
// half-width over the seeded reps, plus rep-mean-aggregated stats
// (coup.MeanStats). Fields are filled in by grid.run.
type point struct {
	Cycles float64
	CI     float64
	Stats  coup.Stats
}

// grid is how experiment runners talk to the sweep engine: they enumerate
// their full data-point set up front with add, evaluate everything in one
// parallel coup.Sweep with run, then read results back through the
// returned points. Results are bit-identical to a serial evaluation at any
// parallelism: aggregation is keyed by spec index, and each rep's seed
// derives from its position in the spec list, never from worker identity.
type grid struct {
	p     Params
	reps  int
	specs []coup.RunSpec
	pts   []*point
}

func newGrid(p Params) *grid {
	reps := p.Reps
	if reps < 1 {
		reps = 1
	}
	return &grid{p: p, reps: reps}
}

// add registers one data point — reps seeded runs of w's workload under
// proto on cores — and returns the point run will fill in. Specs are
// registry-keyed (workload name + params, never a closure), so every
// grid spec has a durable content hash (coup.SpecKey) and sweeps can
// shard, resume and merge across processes.
func (g *grid) add(w wl, cores int, proto string, extra ...coup.Option) *point {
	pt := &point{}
	g.pts = append(g.pts, pt)
	for r := 0; r < g.reps; r++ {
		opts := append([]coup.Option{
			coup.WithCores(cores),
			coup.WithProtocol(proto),
			coup.WithSeed(uint64(r + 1)),
			coup.WithWorkloadParams(w.wp),
		}, extra...)
		g.specs = append(g.specs, coup.RunSpec{Workload: w.name, Options: opts})
	}
	return pt
}

// sweepers caches one Sweeper per parallelism degree for the whole
// process, so the per-worker machine arenas stay warm across grids AND
// across experiments: a "-exp all" run rebuilds each machine geometry
// once per worker, not once per experiment. Sweepers are not safe for
// concurrent Run calls, so sweeperMu serializes sweeps — experiments are
// sequential in every harness (coupbench, the root benchmarks), making
// the lock uncontended in practice.
var (
	sweeperMu sync.Mutex
	sweepers  = map[int]*coup.Sweeper{}
)

func sharedSweep(p Params, specs []coup.RunSpec) ([]coup.SweepResult, bool) {
	sweeperMu.Lock()
	defer sweeperMu.Unlock()
	s, ok := sweepers[p.Parallel]
	if !ok {
		var sopts []coup.SweepOption
		if p.Parallel > 0 {
			sopts = append(sopts, coup.WithParallelism(p.Parallel))
		}
		if p.Progress != nil {
			sopts = append(sopts, coup.WithSweepMetrics(p.Progress))
		}
		var err error
		s, err = coup.NewSweeper(sopts...)
		if err != nil {
			panic(fmt.Sprintf("exp: sweep: %v", err))
		}
		sweepers[p.Parallel] = s
	}
	if p.Job != nil {
		res, complete, err := p.Job.Sweep(s, specs)
		if err != nil {
			// Panic with the error value itself so harnesses that recover
			// can still errors.As into *coup.CoverageError etc.
			panic(fmt.Errorf("exp: sweep job: %w", err))
		}
		return res, complete
	}
	return s.Run(specs), true
}

// run fans the accumulated specs out across the worker pool and aggregates
// per point. It panics on any failed run (an experiment must not silently
// report results from a broken run). Under a shard job the sweep may be
// incomplete — foreign shards own some specs — in which case aggregation
// is skipped: points stay zero and the harness suppresses table output.
func (g *grid) run() {
	results, complete := sharedSweep(g.p, g.specs)
	for i, res := range results {
		if res.Err != nil {
			panic(fmt.Sprintf("exp: sweep spec %d of %d: %v", i, len(results), res.Err))
		}
	}
	if !complete {
		return
	}
	for pi, pt := range g.pts {
		cycles := make([]float64, g.reps)
		runs := make([]coup.Stats, g.reps)
		for r := 0; r < g.reps; r++ {
			st := results[pi*g.reps+r].Stats
			cycles[r] = float64(st.Cycles)
			runs[r] = st
		}
		*pt = point{
			Cycles: stats.Mean(cycles),
			CI:     stats.CI95(cycles),
			Stats:  coup.MeanStats(runs...),
		}
	}
}

// note records the rep count and the worst-case relative confidence
// interval on t when the experiment ran more than one rep per point, so
// multi-rep tables carry their measurement uncertainty. pts must be the
// points the table displays (for multi-table experiments, each table's own
// series); with none given the whole grid is summarized.
func (g *grid) note(t *stats.Table, pts ...*point) {
	if g.reps < 2 {
		return
	}
	if len(pts) == 0 {
		pts = g.pts
	}
	var worst float64
	for _, pt := range pts {
		if pt.Cycles > 0 && pt.CI/pt.Cycles > worst {
			worst = pt.CI / pt.Cycles
		}
	}
	t.AddNote("each point is the mean of %d seeded reps; worst-case ±CI95 is %.1f%% of the mean cycle count", g.reps, worst*100)
}

// measure evaluates a single data point: w's workload, reps times with
// different machine seeds, under proto on cores. It is a thin aggregation
// over a one-point grid; runners measuring more than one point should
// build a grid directly so the whole set fans out in one sweep. It panics
// on validation failures.
func measure(w wl, cores int, proto string, p Params, extra ...coup.Option) point {
	g := newGrid(p)
	pt := g.add(w, cores, proto, extra...)
	g.run()
	return *pt
}

// wl names a registered workload plus the parameters it runs with. Grids
// are built from wl values rather than factory closures so every spec
// carries its workload by registry name — the representation coup.SpecKey
// can hash, which is what makes sweeps shardable and resumable.
type wl struct {
	name string
	wp   coup.WorkloadParams
}

func workload(name string, wp coup.WorkloadParams) wl {
	return wl{name: name, wp: wp}
}

// The five applications (Table 2), sized for simulation at Scale 1.0.

func histWorkload(p Params, bins int, variant string) wl {
	return workload(variant, coup.WorkloadParams{Size: p.scaleInt(240_000), Bins: bins, Seed: 7})
}

func spmvWorkload(p Params) wl {
	return workload("spmv", coup.WorkloadParams{Size: p.scaleInt(8000), NNZPerCol: 24, Seed: 5})
}

func pgrankWorkload(p Params) wl {
	scale := 13
	if p.Scale < 0.5 {
		scale = 11
	}
	if p.Scale < 0.1 {
		scale = 9
	}
	return workload("pgrank", coup.WorkloadParams{Scale: scale, EdgeFactor: 12, Iters: 2, Seed: 9})
}

func bfsWorkload(p Params) wl {
	scale := 14
	if p.Scale < 0.5 {
		scale = 12
	}
	if p.Scale < 0.1 {
		scale = 10
	}
	return workload("bfs", coup.WorkloadParams{Scale: scale, EdgeFactor: 10, Seed: 13})
}

func fluidWorkload(p Params) wl {
	side := 128
	if p.Scale < 0.5 {
		side = 64
	}
	if p.Scale < 0.1 {
		side = 32
	}
	return workload("fluid", coup.WorkloadParams{Size: side, Iters: 3, Seed: 17})
}

// apps returns the Fig 10/11 application list.
func apps(p Params) []struct {
	Name string
	W    wl
} {
	return []struct {
		Name string
		W    wl
	}{
		{"hist", histWorkload(p, 512, "hist")},
		{"spmv", spmvWorkload(p)},
		{"pgrank", pgrankWorkload(p)},
		{"bfs", bfsWorkload(p)},
		{"fluidanimate", fluidWorkload(p)},
	}
}
