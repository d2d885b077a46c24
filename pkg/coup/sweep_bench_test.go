package coup

import (
	"testing"
)

// benchSpecs is a fig13-shaped batch of repeated small simulations: one
// machine shape, many seeds — the workload the per-worker machine arenas
// exist for.
func benchSpecs(cores, n int) []RunSpec {
	specs := make([]RunSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, RunSpec{
			Workload: "hist",
			Options: []Option{
				WithCores(cores),
				WithProtocol("MEUSI"),
				WithSeed(uint64(i + 1)),
				WithWorkloadParams(WorkloadParams{Size: 400, Bins: 128}),
			},
		})
	}
	return specs
}

// BenchmarkSweepSteadyState measures the sweep engine's per-spec cost on
// repeated small machines, with each worker's arena warm. ns/op is one
// whole sweep (12 specs); allocs/op shows the arena removing the
// machine-sized share. CI tracks it in BENCH_baseline under its
// arena=true name.
func BenchmarkSweepSteadyState(b *testing.B) {
	b.Run("arena=true", func(b *testing.B) {
		specs := benchSpecs(16, 12)
		s, err := NewSweeper(WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		warm := s.Run(specs) // warm pools, surface spec errors
		for i, r := range warm {
			if r.Err != nil {
				b.Fatalf("spec %d: %v", i, r.Err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(specs)
		}
		b.StopTimer()
		specsPerSec := float64(b.N) * float64(len(specs)) / b.Elapsed().Seconds()
		b.ReportMetric(specsPerSec, "specs/s")
	})
}
