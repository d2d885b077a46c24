// Package workloads implements the paper's five update-heavy benchmarks
// (Table 2) — hist, spmv, pgrank, bfs and a fluidanimate-like stencil —
// plus the reference-counting microbenchmarks of Sec 5.4, all written
// against the simulated ISA in internal/sim. Each workload is expressed
// once with commutative-update instructions; under the MESI baseline those
// transparently execute as the atomic operations the paper's baseline
// implementations use, so a single kernel compares fairly across protocols.
//
// The software-technique baselines the paper evaluates are implemented as
// separate workload variants: core- and socket-level privatization for hist
// (Sec 5.3), and SNZI and Refcache for reference counting (Sec 5.4).
//
// Every workload validates the simulated memory image against a sequential
// reference computation after the run; a protocol bug that corrupts values
// fails validation, not just performance expectations.
package workloads

import (
	"fmt"

	"repro/internal/sim"
)

// Workload is one benchmark instance: it sizes and initializes simulated
// memory, provides the per-thread kernel, and validates the result.
type Workload interface {
	// Name identifies the workload in tables (e.g. "hist", "spmv").
	Name() string
	// Setup allocates and initializes simulated memory. Called once, before
	// the machine runs.
	Setup(m *sim.Machine)
	// Kernel is the per-thread body; it runs once on every simulated core.
	Kernel(c *sim.Ctx)
	// Validate checks the final memory image against a reference
	// computation.
	Validate(m *sim.Machine) error
}

// Run executes w on a fresh machine built from cfg and validates the
// result.
func Run(w Workload, cfg sim.Config) (sim.Stats, error) { return RunIn(nil, w, cfg) }

// RunIn is Run on a machine drawn from (and released back to) arena, so
// repeated runs of same-geometry machines — a sweep worker's steady state
// — recycle all machine-sized scratch instead of reallocating it. A nil
// arena builds a fresh machine, exactly like Run. The machine returns to
// the pool only after it passed validation and the coherence invariants;
// a failed (or panicked) run's machine is dropped, so a suspect machine
// never re-enters the pool. A kernel write to memory its Setup froze
// (sim.Machine.Freeze) returns the *sim.FrozenWriteError, wrapped; any
// other panic propagates.
func RunIn(arena *sim.Arena, w Workload, cfg sim.Config) (st sim.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			fw, ok := r.(*sim.FrozenWriteError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("%s: %w", w.Name(), fw)
		}
	}()
	m := sim.NewIn(arena, cfg)
	w.Setup(m)
	st = m.Run(w.Kernel)
	if err := w.Validate(m); err != nil {
		return st, fmt.Errorf("%s: %w", w.Name(), err)
	}
	if err := m.CheckInvariants(); err != nil {
		return st, fmt.Errorf("%s: coherence invariants: %w", w.Name(), err)
	}
	m.Release()
	return st, nil
}

// chunk returns the [lo, hi) range of n items assigned to thread tid of
// nthreads under a balanced static partition.
func chunk(n, tid, nthreads int) (lo, hi int) {
	per := n / nthreads
	rem := n % nthreads
	lo = tid*per + min(tid, rem)
	hi = lo + per
	if tid < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// padLines rounds size up to a whole number of 64-byte lines, used to keep
// per-thread private regions from false-sharing.
func padLines(size uint64) uint64 { return (size + 63) &^ 63 }
