package coup

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/pkg/obs"
)

// TestSweepMetrics pins the progress-metrics contract: a metered sweep
// publishes one spec completion per spec, busy time, and arena pool
// stats whose warm+cold total equals the machines built — while results
// stay identical to an unmetered sweep. A spec that fails or panics is
// done like any other: it counts in coup_sweep_specs_total, and its
// neighbours' results do not move.
func TestSweepMetrics(t *testing.T) {
	var specs []RunSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, counterSpec(2, uint64(i+1)))
	}
	healthy := len(specs)
	// Neither broken spec gets as far as building a machine.
	specs = append(specs,
		RunSpec{Make: func() (Workload, error) { panic("factory bug") }},
		RunSpec{Workload: "no-such-workload", Options: []Option{WithCores(2)}},
	)

	reg := obs.NewRegistry()
	s, err := NewSweeper(WithParallelism(2), WithSweepMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	metered := s.Run(specs)
	bare, err := Sweep(specs, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if i >= healthy {
			if metered[i].Err == nil || bare[i].Err == nil {
				t.Errorf("broken spec %d did not fail: metered=%v bare=%v", i, metered[i].Err, bare[i].Err)
			}
			continue
		}
		if metered[i].Err != nil || bare[i].Err != nil {
			t.Fatalf("spec %d errored: metered=%v bare=%v", i, metered[i].Err, bare[i].Err)
		}
		if metered[i].Stats != bare[i].Stats {
			t.Errorf("spec %d: metrics changed results", i)
		}
	}

	if got := reg.Counter("coup_sweep_specs_total", "").Value(); got != int64(len(specs)) {
		t.Errorf("coup_sweep_specs_total = %d, want %d", got, len(specs))
	}
	if got := reg.Counter("coup_sweep_busy_ns_total", "").Value(); got <= 0 {
		t.Errorf("coup_sweep_busy_ns_total = %d, want > 0", got)
	}
	warm := reg.Counter("coup_sweep_arena_warm_total", "").Value()
	cold := reg.Counter("coup_sweep_arena_cold_total", "").Value()
	if warm+cold != int64(healthy) {
		t.Errorf("arena warm+cold = %d+%d, want %d machine constructions", warm, cold, healthy)
	}
	if cold < 1 {
		t.Errorf("arena cold = %d, want >= 1 (first build per worker is always cold)", cold)
	}

	// A second Run on the same Sweeper keeps accumulating, and every
	// worker that already built this shape serves it warm. Specs this tiny
	// can all go to one worker in the first Run, so the only cold builds
	// allowed now are by workers that first Run never handed a spec (one
	// cold build each: every spec has the same shape). When both workers
	// ran, every machine must be warm.
	warmBefore, coldBefore := warm, cold
	_ = s.Run(specs)
	if got := reg.Counter("coup_sweep_specs_total", "").Value(); got != int64(2*len(specs)) {
		t.Errorf("after reuse, coup_sweep_specs_total = %d, want %d", got, 2*len(specs))
	}
	warm = reg.Counter("coup_sweep_arena_warm_total", "").Value()
	cold = reg.Counter("coup_sweep_arena_cold_total", "").Value()
	idle := int64(s.parallelism) - coldBefore
	if cold-coldBefore > idle || warm-warmBefore != int64(healthy)-(cold-coldBefore) {
		t.Errorf("reused sweep warm+cold = %d+%d, want %d with at most %d cold (workers idle in the first run)",
			warm-warmBefore, cold-coldBefore, healthy, idle)
	}
}

// TestSweepPanickedSpecIsDone pins the done-with-error contract for
// panics: a kernel that panics mid-run and a factory that panics are
// each recovered into that spec's Err, count in coup_sweep_specs_total
// exactly like a clean run, and move neither their neighbours' results
// nor, on a second Run, the results of the workers that recovered them.
func TestSweepPanickedSpecIsDone(t *testing.T) {
	specs := []RunSpec{
		counterSpec(2, 1),
		{
			Make:    func() (Workload, error) { return &faultyKernel{panicWith: errors.New("kernel bug")}, nil },
			Options: []Option{WithCores(2)},
		},
		counterSpec(2, 2),
		{Make: func() (Workload, error) { panic("factory bug") }},
		counterSpec(2, 3),
	}
	panics := map[int]string{
		1: "coup: sweep run panicked: kernel bug",
		3: "coup: sweep run panicked: factory bug",
	}

	reg := obs.NewRegistry()
	s, err := NewSweeper(WithParallelism(2), WithSweepMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		res := s.Run(specs)
		for i, spec := range specs {
			if msg, ok := panics[i]; ok {
				if res[i].Err == nil || res[i].Err.Error() != msg {
					t.Errorf("run %d spec %d: err = %v, want %q", run, i, res[i].Err, msg)
				}
				continue
			}
			alone, err := Sweep([]RunSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			if res[i].Err != nil || alone[0].Err != nil {
				t.Fatalf("run %d spec %d errored: swept=%v alone=%v", run, i, res[i].Err, alone[0].Err)
			}
			if res[i].Stats != alone[0].Stats {
				t.Errorf("run %d spec %d: stats differ from the spec run alone", run, i)
			}
		}
		if got := reg.Counter("coup_sweep_specs_total", "").Value(); got != int64(run*len(specs)) {
			t.Errorf("after run %d, coup_sweep_specs_total = %d, want %d (a panicked spec counts as done)",
				run, got, run*len(specs))
		}
	}
	// Only the factory panic stops short of a machine: the kernel panic
	// built one, like each healthy spec, in each of the two runs.
	warm := reg.Counter("coup_sweep_arena_warm_total", "").Value()
	cold := reg.Counter("coup_sweep_arena_cold_total", "").Value()
	if want := int64(2 * (len(specs) - 1)); warm+cold != want {
		t.Errorf("arena warm+cold = %d+%d, want %d machine constructions", warm, cold, want)
	}
}

// failsValidate is a workload whose run completes but whose result fails
// its check.
type failsValidate struct{ Workload }

func (failsValidate) Validate(*sim.Machine) error { return errors.New("wrong result") }

// TestSweepPoolsFailedRun: a spec whose run completed but failed its
// check returns its machine to the worker's arena, so the next spec of
// the same geometry is served warm, with the stats a fresh Sweeper gives
// it.
func TestSweepPoolsFailedRun(t *testing.T) {
	healthy := counterSpec(4, 1)
	failing := RunSpec{
		Make: func() (Workload, error) {
			info, err := LookupWorkload("counter")
			if err != nil {
				return nil, err
			}
			w, err := info.New(WorkloadParams{Size: 50})
			return failsValidate{w}, err
		},
		Options: healthy.Options,
	}
	reg := obs.NewRegistry()
	s, err := NewSweeper(WithParallelism(1), WithSweepMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run([]RunSpec{failing}); res[0].Err == nil {
		t.Fatal("the failing spec returned no error")
	}
	warm := reg.Counter("coup_sweep_arena_warm_total", "")
	cold := reg.Counter("coup_sweep_arena_cold_total", "")
	warm0, cold0 := warm.Value(), cold.Value()
	res := s.Run([]RunSpec{healthy})
	if dw, dc := warm.Value()-warm0, cold.Value()-cold0; dw != 1 || dc != 0 {
		t.Errorf("after a failed check the next spec raised warm by %d and cold by %d, want 1 and 0", dw, dc)
	}
	fresh, err := Sweep([]RunSpec{healthy})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || fresh[0].Err != nil {
		t.Fatalf("healthy spec errored: pooled=%v fresh=%v", res[0].Err, fresh[0].Err)
	}
	if res[0].Stats != fresh[0].Stats {
		t.Errorf("the healthy spec on the pooled machine differs from a fresh Sweeper's run:\npooled: %+v\nfresh:  %+v", res[0].Stats, fresh[0].Stats)
	}
}
