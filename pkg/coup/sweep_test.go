package coup

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
)

func counterSpec(cores int, seed uint64) RunSpec {
	return RunSpec{
		Workload: "counter",
		Options: []Option{
			WithCores(cores),
			WithProtocol("MEUSI"),
			WithSeed(seed),
			WithWorkloadParams(WorkloadParams{Size: 50}),
		},
	}
}

// TestSweepOrderAndDeterminism is the engine's core contract: results come
// back in input order, and every spec's stats are identical no matter how
// many workers the sweep fans out over — seeds live in the specs, never in
// worker identity.
func TestSweepOrderAndDeterminism(t *testing.T) {
	coreCounts := []int{1, 2, 3, 4, 6, 8}
	var specs []RunSpec
	for i, c := range coreCounts {
		specs = append(specs, counterSpec(c, uint64(i+1)))
	}
	serial, err := Sweep(specs, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(specs, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("result lengths %d/%d, want %d", len(serial), len(parallel), len(specs))
	}
	for i, c := range coreCounts {
		if serial[i].Err != nil {
			t.Fatalf("spec %d: %v", i, serial[i].Err)
		}
		if serial[i].Stats.Cores != c {
			t.Errorf("result %d has %d cores, want %d: results out of input order", i, serial[i].Stats.Cores, c)
		}
		if serial[i] != parallel[i] {
			t.Errorf("spec %d differs between 1 and 8 workers:\nserial   %+v\nparallel %+v",
				i, serial[i], parallel[i])
		}
	}
}

// TestSweepDefaultParallelism checks the no-options path (GOMAXPROCS
// workers) against the serial path.
func TestSweepDefaultParallelism(t *testing.T) {
	specs := []RunSpec{counterSpec(2, 1), counterSpec(4, 2)}
	def, err := Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Sweep(specs, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if def[i] != serial[i] {
			t.Errorf("spec %d: default parallelism result differs from serial", i)
		}
	}
}

// TestSweepPerSpecErrors: one broken spec must fail alone, in place, while
// its neighbors complete — and panics out of workload factories become
// that spec's error.
func TestSweepPerSpecErrors(t *testing.T) {
	specs := []RunSpec{
		counterSpec(2, 1),
		{Workload: "no-such-workload", Options: []Option{WithCores(2)}},
		{Make: func() (Workload, error) { panic("factory exploded") }},
		{Make: func() (Workload, error) { return nil, errors.New("deliberate factory error") }},
		{}, // neither Workload nor Make
		{Workload: "counter", Make: func() (Workload, error) { return nil, nil }}, // both
		{Workload: "counter", Options: []Option{WithCores(0)}},                    // option error
		counterSpec(3, 2),
	}
	results, err := Sweep(specs, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[7].Err != nil {
		t.Fatalf("healthy specs failed: %v / %v", results[0].Err, results[7].Err)
	}
	if results[0].Stats.Cycles == 0 || results[7].Stats.Cycles == 0 {
		t.Error("healthy specs returned no stats")
	}
	if !errors.Is(results[1].Err, ErrUnknownWorkload) {
		t.Errorf("unknown workload err = %v, want ErrUnknownWorkload", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "panicked") {
		t.Errorf("panicking factory err = %v, want recovered panic", results[2].Err)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "deliberate factory error") {
		t.Errorf("factory error = %v, want wrapped deliberate error", results[3].Err)
	}
	if !errors.Is(results[4].Err, ErrInvalidOption) {
		t.Errorf("empty spec err = %v, want ErrInvalidOption", results[4].Err)
	}
	if !errors.Is(results[5].Err, ErrInvalidOption) {
		t.Errorf("both-set spec err = %v, want ErrInvalidOption", results[5].Err)
	}
	if !errors.Is(results[6].Err, ErrInvalidOption) {
		t.Errorf("bad option err = %v, want ErrInvalidOption", results[6].Err)
	}
}

func TestSweepMakeSpecs(t *testing.T) {
	// Make-based specs run pre-built workloads, one fresh instance per run.
	spec := RunSpec{
		Make: func() (Workload, error) {
			info, err := LookupWorkload("counter")
			if err != nil {
				return nil, err
			}
			return info.New(WorkloadParams{Size: 25})
		},
		Options: []Option{WithCores(2), WithProtocol("MESI"), WithSeed(9)},
	}
	results, err := Sweep([]RunSpec{spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("run %d: %v", i, res.Err)
		}
		if res.Stats.Protocol != "MESI" || res.Stats.Cycles == 0 {
			t.Errorf("run %d stats: %+v", i, res.Stats)
		}
	}
	if results[0] != results[1] {
		t.Error("identical specs must produce identical results")
	}
}

// TestSpecKeyContent pins the content-hash contract: keys depend on what
// the spec runs, not how it is spelled; any knob change changes the key.
func TestSpecKeyContent(t *testing.T) {
	base := RunSpec{
		Workload: "hist",
		Options: []Option{
			WithCores(4),
			WithProtocol("MEUSI"),
			WithSeed(3),
			WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16}),
		},
	}
	k1, err := SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Same content, different spelling: reordered options, case-folded
	// names.
	respelled := RunSpec{
		Workload: "HIST",
		Options: []Option{
			WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16}),
			WithSeed(3),
			WithProtocol("meusi"),
			WithCores(4),
		},
	}
	if k2, _ := SpecKey(respelled); k2 != k1 {
		t.Errorf("respelled spec hashes differently: %s vs %s", k1, k2)
	}
	// Any knob change must change the key.
	variants := map[string]RunSpec{
		"cores": {Workload: "hist", Options: []Option{WithCores(8), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"proto": {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MESI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"seed":  {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(4), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"wp":    {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 32})}},
		"wl":    {Workload: "counter", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
	}
	for what, s := range variants {
		kv, err := SpecKey(s)
		if err != nil {
			t.Fatalf("%s variant: %v", what, err)
		}
		if kv == k1 {
			t.Errorf("changing %s did not change the key %s", what, k1)
		}
	}
	// A Make closure has no content to hash.
	if _, err := SpecKey(RunSpec{Make: func() (Workload, error) { return nil, nil }}); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("Make spec: err=%v, want ErrInvalidOption", err)
	}
}

// TestSweepDispatchLargestFirst: a parallel sweep starts its largest
// machines first, so the last spec to start is a small one, while each
// result still lands at its input index and equals the serial sweep's.
// The serial path starts specs in input order.
func TestSweepDispatchLargestFirst(t *testing.T) {
	coreCounts := []int{1, 4, 2, 16, 3, 8, 2, 1}
	var mu sync.Mutex
	var started []int
	specs := make([]RunSpec, len(coreCounts))
	for i, c := range coreCounts {
		specs[i] = RunSpec{
			Make: func() (Workload, error) {
				mu.Lock()
				started = append(started, i)
				mu.Unlock()
				info, err := LookupWorkload("counter")
				if err != nil {
					return nil, err
				}
				return info.New(WorkloadParams{Size: 25})
			},
			Options: []Option{WithCores(c), WithProtocol("MEUSI"), WithSeed(uint64(i + 1))},
		}
	}
	serial, err := Sweep(specs, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(started, want) {
		t.Errorf("serial sweep started specs %v, want input order %v", started, want)
	}

	started = nil
	s, err := NewSweeper(WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	parallel := s.Run(specs)
	// The two workers take the 16- and 8-core specs first; which of the
	// two calls its factory first is up to the scheduler.
	if first := slices.Sorted(slices.Values(started[:2])); !slices.Equal(first, []int{3, 5}) {
		t.Errorf("parallel sweep started specs %v; the first two should be 3 and 5, the largest machines", started)
	}
	for i, c := range coreCounts {
		if parallel[i].Err != nil {
			t.Fatalf("spec %d: %v", i, parallel[i].Err)
		}
		if parallel[i].Stats.Cores != c || parallel[i] != serial[i] {
			t.Errorf("result %d (%d cores) differs from the serial sweep's:\nparallel %+v\nserial   %+v", i, c, parallel[i], serial[i])
		}
	}
}

func TestSweepEmptyAndOptionValidation(t *testing.T) {
	results, err := Sweep(nil)
	if err != nil || len(results) != 0 {
		t.Errorf("empty sweep: %v, %v", results, err)
	}
	for _, n := range []int{0, -3} {
		_, err := Sweep(nil, WithParallelism(n))
		// The typed sentinel must match, and so must the broader
		// ErrInvalidOption it wraps (older callers match on that).
		if !errors.Is(err, ErrInvalidParallelism) {
			t.Errorf("WithParallelism(%d) err = %v, want ErrInvalidParallelism", n, err)
		}
		if !errors.Is(err, ErrInvalidOption) {
			t.Errorf("WithParallelism(%d) err = %v, want ErrInvalidOption", n, err)
		}
		if _, err := NewSweeper(WithParallelism(n)); !errors.Is(err, ErrInvalidParallelism) {
			t.Errorf("NewSweeper(WithParallelism(%d)) err = %v, want ErrInvalidParallelism", n, err)
		}
	}
}

// sweepGoldenSpecs is a mixed grid — workloads × protocols × shapes ×
// seeds — exercising registry and Make specs, chip-crossing machines and
// repeated shapes (so arenas actually recycle).
func sweepGoldenSpecs() []RunSpec {
	var specs []RunSpec
	for _, wl := range []string{"counter", "hist"} {
		for _, proto := range []string{"MEUSI", "MESI"} {
			for _, cores := range []int{2, 4, 17} {
				for seed := uint64(1); seed <= 2; seed++ {
					specs = append(specs, RunSpec{
						Workload: wl,
						Options: []Option{
							WithCores(cores),
							WithProtocol(proto),
							WithSeed(seed),
							WithWorkloadParams(WorkloadParams{Size: 60, Bins: 32}),
						},
					})
				}
			}
		}
	}
	return specs
}

// TestSweepArenaGolden is the sweep-level golden test: the full result
// table must be byte-identical at parallelism 1 and 8 to a per-spec Run,
// which builds a fresh machine each time. Neither scheduling nor scratch
// reuse may leak into results.
func TestSweepArenaGolden(t *testing.T) {
	specs := sweepGoldenSpecs()
	base := make([]SweepResult, len(specs))
	for i, s := range specs {
		base[i].Stats, base[i].Err = Run(s.Workload, s.Options...)
	}
	variants := []struct {
		name string
		opts []SweepOption
	}{
		{"parallel1", []SweepOption{WithParallelism(1)}},
		{"parallel8", []SweepOption{WithParallelism(8)}},
		{"default", nil},
	}
	for _, v := range variants {
		got, err := Sweep(specs, v.opts...)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for i := range specs {
			if base[i].Err != nil || got[i].Err != nil {
				t.Fatalf("%s spec %d: errs %v / %v", v.name, i, base[i].Err, got[i].Err)
			}
			if got[i] != base[i] {
				t.Errorf("%s: spec %d differs from per-spec Run:\nbase %+v\ngot  %+v",
					v.name, i, base[i], got[i])
			}
		}
	}
}

// TestSweeperReuse pins the hoisted configuration: one Sweeper carried
// across Run calls (its arenas staying warm) returns the same results as
// fresh sweeps.
func TestSweeperReuse(t *testing.T) {
	specs := []RunSpec{counterSpec(2, 1), counterSpec(17, 2), counterSpec(2, 3)}
	s, err := NewSweeper(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	first := s.Run(specs)
	second := s.Run(specs)
	for i := range specs {
		if first[i].Err != nil {
			t.Fatalf("spec %d: %v", i, first[i].Err)
		}
		if first[i] != second[i] {
			t.Errorf("spec %d: warm-arena rerun differs:\n1st %+v\n2nd %+v", i, first[i], second[i])
		}
	}
}

// TestSweepZeroAllocsSteadyState pins the arena's end-to-end effect: at
// steady state (arenas warm), a sweep spec's allocations no longer scale
// with the machine — what remains is per-spec harness overhead (kernel
// coroutines, option application, the workload instance), the same ~dozens
// of small objects for a 4-core and a 64-core machine. Without the arena a
// single 64-core machine costs megabytes and thousands of objects per
// spec.
func TestSweepZeroAllocsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cores int
	}{
		{"small-4core", 4},
		{"large-64core", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var specs []RunSpec
			for i := 0; i < 6; i++ {
				specs = append(specs, counterSpec(tc.cores, uint64(i+1)))
			}
			s, err := NewSweeper(WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			s.Run(specs) // warm the arena
			allocs := testing.AllocsPerRun(3, func() { s.Run(specs) })
			perSpec := allocs / float64(len(specs))
			t.Logf("%s: %.1f allocs/spec steady state", tc.name, perSpec)
			// What remains per spec is bounded harness overhead: ~60 small
			// objects of option/workload plumbing plus the per-core kernel
			// coroutines (iter.Pull spawns ~14 objects per simulated thread —
			// the documented engine floor). Nothing may scale with cache or
			// directory sizes: a 64-core Table-1 machine is ~12 MB of arrays,
			// and before the arena a spec allocated all of it. The bound is
			// ~2x the measured steady state; failing it means machine-sized
			// allocations crept back into the sweep loop.
			budget := 150 + 25*float64(tc.cores)
			if perSpec > budget {
				t.Errorf("steady-state sweep allocates %.1f objects/spec, want < %.0f (harness + coroutine overhead only)", perSpec, budget)
			}
		})
	}
}

func TestMeanStats(t *testing.T) {
	if (MeanStats()) != (Stats{}) {
		t.Error("MeanStats() must be zero")
	}
	a := Stats{Protocol: "MEUSI", Workload: "hist", Cores: 8, Cycles: 100, AMAT: 2.0,
		Breakdown: AMATBreakdown{L2: 1.0}, Traffic: Traffic{OffChipBytes: 10}}
	if MeanStats(a) != a {
		t.Error("MeanStats of one run must be the identity")
	}
	b := a
	b.Cycles, b.AMAT, b.Breakdown.L2, b.Traffic.OffChipBytes = 201, 4.0, 3.0, 21
	m := MeanStats(a, b)
	if m.Protocol != "MEUSI" || m.Workload != "hist" || m.Cores != 8 {
		t.Errorf("identity fields changed: %+v", m)
	}
	if m.Cycles != 151 { // mean 150.5 rounds to nearest
		t.Errorf("mean cycles %d, want 151", m.Cycles)
	}
	if m.AMAT != 3.0 || m.Breakdown.L2 != 2.0 {
		t.Errorf("float means wrong: AMAT=%v L2=%v", m.AMAT, m.Breakdown.L2)
	}
	if m.Traffic.OffChipBytes != 16 { // mean 15.5 rounds up
		t.Errorf("nested counter mean %d, want 16", m.Traffic.OffChipBytes)
	}
}

func TestCyclesCI95(t *testing.T) {
	if CyclesCI95() != 0 || CyclesCI95(Stats{Cycles: 5}) != 0 {
		t.Error("fewer than two runs must have no CI")
	}
	if CyclesCI95(Stats{Cycles: 7}, Stats{Cycles: 7}) != 0 {
		t.Error("identical runs must have zero-width CI")
	}
	// Two runs at 90/110: half-width = t(df=1) * sd/sqrt(2) = 12.706 * 10.
	ci := CyclesCI95(Stats{Cycles: 90}, Stats{Cycles: 110})
	if ci < 127.0 || ci > 127.1 {
		t.Errorf("CI = %v, want ~127.06", ci)
	}
}
