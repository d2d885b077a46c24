package workloads

import (
	"fmt"
	"sort"
	"strings"
)

// Params carries the size and shape knobs a registered workload factory
// understands. Every field has a per-workload default when left zero, so
// Params{} builds the workload at its standard demo size; factories reject
// negative values. Which fields a workload reads is documented in its
// registration description (and in each factory below).
type Params struct {
	// Size is the dominant input size: input values for hist, the matrix
	// dimension for spmv, the grid side for fluid, updates per thread for
	// the refcount family.
	Size int
	// Bins is the histogram bin count (hist family).
	Bins int
	// Scale is the log2 vertex count of R-MAT graphs (pgrank, bfs).
	Scale int
	// EdgeFactor is the average degree of R-MAT graphs (pgrank, bfs).
	EdgeFactor int
	// Iters is the iteration count (pgrank, fluid) or epoch count
	// (refcount-delayed family).
	Iters int
	// Counters sizes the shared counter pool (refcount family).
	Counters int
	// UpdatesPerEpoch is the refcount-delayed epoch length.
	UpdatesPerEpoch int
	// NNZPerCol is the nonzeros per column of the spmv matrix.
	NNZPerCol int
	// HighCount keeps refcount counters biased positive so decrements
	// rarely hit zero (Fig 13b's regime).
	HighCount bool
	// Seed drives the workload's deterministic input generation; zero
	// means the workload's canonical seed.
	Seed uint64
}

func (p Params) def(v, d int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("negative size parameter %d", v)
	}
	if v == 0 {
		return d, nil
	}
	return v, nil
}

func (p Params) seed(d uint64) uint64 {
	if p.Seed == 0 {
		return d
	}
	return p.Seed
}

// Factory builds a fresh workload instance from run parameters.
type Factory func(p Params) (Workload, error)

// Info is one registry entry.
type Info struct {
	// Name is the registry key (unique, case-insensitively).
	Name string
	// Description is a one-line description for listings, naming the paper
	// section/figure the workload reproduces and the Params fields it uses.
	Description string
	// New builds a fresh instance; workloads are single-run, so every
	// simulation needs a new one.
	New Factory
}

// registry holds the built-in workloads, keyed by lower-cased name. Only
// the init-time mustRegister calls write it, so lookups need no lock.
var registry = map[string]Info{}

// mustRegister adds a built-in workload at init. It panics on an empty or
// duplicate name (case-insensitive).
func mustRegister(name, desc string, f Factory) {
	if name == "" {
		panic("workloads: name must be non-empty")
	}
	key := strings.ToLower(name)
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("workloads: %q already registered", name))
	}
	registry[key] = Info{Name: name, Description: desc, New: f}
}

// ByName looks up a registered workload case-insensitively.
func ByName(name string) (Info, bool) {
	in, ok := registry[strings.ToLower(name)]
	return in, ok
}

// All returns every registered workload, sorted by name.
func All() []Info {
	out := make([]Info, 0, len(registry))
	for _, in := range registry {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered names (for error messages).
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, in := range all {
		names[i] = in.Name
	}
	return names
}
