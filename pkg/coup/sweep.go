package coup

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/pkg/obs"
)

// RunSpec describes one simulation in a Sweep: which workload to run and
// how to configure the machine. Exactly one of Workload and Make must be
// set. Everything that shapes the run — cores, protocol, seed, workload
// parameters — lives in the spec itself, so a sweep's results depend only
// on its spec list, never on how the runs are scheduled across workers.
type RunSpec struct {
	// Workload names a registered workload, built with the parameters from
	// Options (WithWorkloadParams), exactly as Run would.
	Workload string
	// Make builds the workload instance directly, bypassing the registry.
	// Workloads are single-run; Make is called once, inside the worker
	// executing the spec.
	Make func() (Workload, error)
	// Options configure the machine, as in Run.
	Options []Option
}

// SpecKey returns a content key for a registry-named spec: a hash over
// everything that determines the run's results — the resolved workload
// name, the protocol name, the full machine configuration and the
// workload parameters. Two specs that would produce identical stats get
// the same key no matter how their option lists are spelled, and any
// change to a knob changes the key, so a caller can find the repeats in
// a spec list before sweeping it. The key identifies a spec within one
// process; it is not a format to store. A spec built around a Make
// closure has no content to hash and is an ErrInvalidOption.
func SpecKey(s RunSpec) (string, error) {
	if s.Make != nil {
		return "", fmt.Errorf("coup: %w: RunSpec with a Make closure has no content key", ErrInvalidOption)
	}
	if s.Workload == "" {
		return "", fmt.Errorf("coup: %w: RunSpec needs Workload or Make", ErrInvalidOption)
	}
	info, err := LookupWorkload(s.Workload)
	if err != nil {
		return "", err
	}
	b, err := newBuilder(s.Options)
	if err != nil {
		return "", err
	}
	// Hash the protocol by name, not numeric id, so keys do not depend on
	// the protocol table's order.
	cfg := b.cfg
	proto := cfg.Protocol.String()
	cfg.Protocol = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%+v|%+v", info.Name, proto, cfg, b.wp)
	return fmt.Sprintf("%s-%016x", info.Name, h.Sum64()), nil
}

// SweepResult pairs one spec's stats with its error. As with Run, Stats
// may hold partial results even when Err is non-nil (e.g. a validation
// failure after a completed simulation).
type SweepResult struct {
	Stats Stats
	Err   error
}

// sweepConfig carries sweep-level knobs.
type sweepConfig struct {
	parallelism int
	metrics     *obs.Registry
}

// SweepOption configures a Sweep (not the machines inside it).
type SweepOption func(*sweepConfig) error

// WithParallelism bounds the sweep's worker pool at n concurrent
// simulations (n >= 1). The default is runtime.GOMAXPROCS(0); 1 yields a
// fully serial sweep. Parallelism never changes results, only wall-clock
// time. n < 1 is an error (ErrInvalidParallelism), never a silent clamp.
func WithParallelism(n int) SweepOption {
	return func(c *sweepConfig) error {
		if n < 1 {
			return fmt.Errorf("coup: %w: parallelism must be >= 1, got %d", ErrInvalidParallelism, n)
		}
		c.parallelism = n
		return nil
	}
}

// WithSweepMetrics publishes sweep progress into reg as it happens:
// coup_sweep_specs_total (specs finished), coup_sweep_busy_ns_total
// (summed per-worker simulation time), and coup_sweep_arena_warm_total /
// coup_sweep_arena_cold_total (machine pool hits vs fresh builds, the
// arena warm-hit rate). The counters are obs update-only writes from
// each worker, so a progress reader (cmd/coupbench -progress) can reduce
// them live without perturbing the sweep. Nil reg disables metrics (the
// default); metrics never change results.
func WithSweepMetrics(reg *obs.Registry) SweepOption {
	return func(c *sweepConfig) error {
		c.metrics = reg
		return nil
	}
}

// Sweeper is a validated, reusable sweep engine. NewSweeper derives the
// worker count and builds the per-worker machine arenas once; every Run
// then fans its specs out over that fixed pool, so repeated sweeps (a
// benchmark loop, an experiment series) keep their recycled machines
// across calls instead of re-deriving configuration per sweep. Each
// worker's arena recycles machine-sized scratch — cache and directory
// arrays, backing-store pages, bank tables — across the specs it
// executes, making repeated small simulations allocation-free at steady
// state; arenas never change results (TestSweepArenaGolden). With more
// than one worker, specs start in descending order of core count (ties
// in input order), so a sweep's largest machines, usually its longest
// simulations, start first, and the last spec to start is a small one
// instead of a large one that leaves the other workers idle.
//
// A Sweeper is safe for sequential reuse, not for concurrent Run calls
// (the per-worker arenas are single-threaded by design).
type Sweeper struct {
	parallelism int
	arenas      []*sim.Arena // one per worker slot

	// Progress metrics; all nil unless WithSweepMetrics was given.
	specsDone  *obs.Counter
	busyNs     *obs.Counter
	arenaWarm  *obs.Counter
	arenaCold  *obs.Counter
	arenaSyncs []arenaSync // per-worker last-published pool stats
}

// arenaSync tracks what a worker's arena counters last published, so
// each spec's finish adds only the delta to the shared totals.
type arenaSync struct{ warm, cold uint64 }

// NewSweeper validates opts and returns a reusable Sweeper. Option errors
// (e.g. WithParallelism(0)) surface here, typed, rather than inside every
// sweep call.
func NewSweeper(opts ...SweepOption) (*Sweeper, error) {
	cfg := sweepConfig{parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Sweeper{parallelism: cfg.parallelism, arenas: make([]*sim.Arena, cfg.parallelism)}
	for i := range s.arenas {
		s.arenas[i] = sim.NewArena()
	}
	if m := cfg.metrics; m != nil {
		s.specsDone = m.Counter("coup_sweep_specs_total", "Sweep specs finished.")
		s.busyNs = m.Counter("coup_sweep_busy_ns_total", "Summed per-worker simulation time in nanoseconds.")
		s.arenaWarm = m.Counter("coup_sweep_arena_warm_total", "Machines served from a worker's arena pool.")
		s.arenaCold = m.Counter("coup_sweep_arena_cold_total", "Machines built fresh (arena pool miss).")
		s.arenaSyncs = make([]arenaSync, cfg.parallelism)
	}
	return s, nil
}

// Run executes every spec on its own isolated machine, fanning the runs
// out across the Sweeper's worker pool, largest machines first, and
// returns one result per spec in input order. The serial path (one
// worker, or one spec) runs the specs in input order. Failures — bad
// specs, option errors, validation failures, even panics out of a
// workload factory or kernel — are captured as that spec's Err; one
// broken run never takes down the sweep.
func (s *Sweeper) Run(specs []RunSpec) []SweepResult {
	out := make([]SweepResult, len(specs))
	workers := s.parallelism
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i := range specs {
			out[i] = s.runCounted(0, specs[i])
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				out[i] = s.runCounted(w, specs[i])
			}
		}(w)
	}
	for _, i := range largestFirst(specs) {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// largestFirst returns the spec indices in descending order of core
// count, ties in input order. A spec's core count is what its options
// configure, read once per spec; a spec whose options fail counts as 0
// cores, since its run ends at the same error.
func largestFirst(specs []RunSpec) []int {
	cores := make([]int, len(specs))
	order := make([]int, len(specs))
	for i, spec := range specs {
		if b, err := newBuilder(spec.Options); err == nil {
			cores[i] = b.cfg.Cores
		}
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cores[b] - cores[a] })
	return order
}

// runCounted executes one spec on worker w's arena and, when progress
// metrics are on, publishes its completion: busy time, the spec count,
// and the arena's pool-stat deltas since its last publish. Each write is
// an obs update-only add on the worker's own shard, so progress costs the
// sweep nothing measurable and a concurrent reader sees live totals.
//
// "Done" deliberately includes failures: a spec that errored — or
// panicked and was recovered — counts in coup_sweep_specs_total exactly
// like a clean run, so the counter always reaches the number of specs
// swept; TestSweepMetrics and TestSweepPanickedSpecIsDone pin this.
func (s *Sweeper) runCounted(w int, spec RunSpec) SweepResult {
	a := s.arenas[w]
	if s.specsDone == nil {
		return runSpec(a, spec)
	}
	t0 := time.Now()
	res := runSpec(a, spec)
	s.busyNs.Add(time.Since(t0).Nanoseconds())
	s.specsDone.Inc()
	warm, cold := a.PoolStats()
	last := &s.arenaSyncs[w]
	s.arenaWarm.Add(int64(warm - last.warm))
	s.arenaCold.Add(int64(cold - last.cold))
	last.warm, last.cold = warm, cold
	return res
}

// Sweep executes every spec across a bounded worker pool and returns one
// result per spec in input order; see Sweeper.Run for the execution
// contract. The returned error reports only sweep-level misuse (bad
// SweepOptions). Callers issuing many sweeps can build one Sweeper and
// reuse it, keeping the per-worker machine arenas warm across calls.
func Sweep(specs []RunSpec, opts ...SweepOption) ([]SweepResult, error) {
	s, err := NewSweeper(opts...)
	if err != nil {
		return nil, err
	}
	return s.Run(specs), nil
}

// runSpec executes one spec, converting panics (workload factories and
// kernels are allowed to panic on setup bugs) into errors. Machines come
// from arena.
func runSpec(arena *sim.Arena, s RunSpec) (res SweepResult) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				res.Err = fmt.Errorf("coup: sweep run panicked: %w", err)
			} else {
				res.Err = fmt.Errorf("coup: sweep run panicked: %v", r)
			}
		}
	}()
	switch {
	case s.Workload != "" && s.Make != nil:
		res.Err = fmt.Errorf("coup: %w: RunSpec sets both Workload and Make", ErrInvalidOption)
	case s.Make != nil:
		w, err := s.Make()
		if err != nil {
			res.Err = fmt.Errorf("coup: sweep workload factory: %w", err)
			return
		}
		res.Stats, res.Err = runWorkloadIn(arena, w, s.Options)
	case s.Workload != "":
		res.Stats, res.Err = runIn(arena, s.Workload, s.Options)
	default:
		res.Err = fmt.Errorf("coup: %w: RunSpec needs Workload or Make", ErrInvalidOption)
	}
	return
}
