package coup

import (
	"testing"

	"repro/pkg/obs"
)

// TestSweepMetrics pins the progress-metrics contract: a metered sweep
// publishes one spec completion per spec, busy time, and arena pool
// stats whose warm+cold total equals the machines built — while results
// stay identical to an unmetered sweep.
func TestSweepMetrics(t *testing.T) {
	var specs []RunSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, counterSpec(2, uint64(i+1)))
	}

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
	if warm+cold != int64(len(specs)) {
		t.Errorf("arena warm+cold = %d+%d, want %d machine constructions", warm, cold, len(specs))
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
	if cold-coldBefore > idle || warm-warmBefore != int64(len(specs))-(cold-coldBefore) {
		t.Errorf("reused sweep warm+cold = %d+%d, want %d with at most %d cold (workers idle in the first run)",
			warm-warmBefore, cold-coldBefore, len(specs), idle)
	}
}
