package sim

import (
	"testing"
)

// benchCfg is the 16-core single-chip Table-1 machine the engine
// microbenchmarks run on; caches are shrunk so eviction paths stay warm.
func benchCfg(cores int, p Protocol) Config {
	cfg := DefaultConfig(cores, p)
	cfg.L2Size = 16 << 10
	cfg.L3Size = 1 << 20
	cfg.L4Size = 4 << 20
	return cfg
}

// reportEngine reports the run's aggregate simulated-operation rate
// (simops/s) and its kernel coroutine resumes per simulated operation
// (resumes/simop). The resume rate is a property of the code, not the
// host, so the perf gate checks it on every runner.
func reportEngine(b *testing.B, m *Machine) {
	ops := m.Stats().Accesses
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
	b.ReportMetric(float64(m.EngineCounters().Resumes)/float64(ops), "resumes/simop")
}

// BenchmarkEngineThroughput is the headline engine-speed number: a
// fig2-shaped histogramming kernel (strided input loads, modelled per-
// pixel work, commutative adds into a shared 512-bin histogram) on 16
// cores under MEUSI. ns/op is per b.N iteration of all 16 kernels;
// simops/s is the aggregate simulated-operation rate. Steady-state
// allocs/op must be zero.
func BenchmarkEngineThroughput(b *testing.B) {
	const cores = 16
	const bins = 512
	m := New(benchCfg(cores, MEUSI))
	input := m.Alloc(1<<16, 64)
	hist := m.Alloc(bins*4, 64)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			if i%4 == 0 {
				c.Load64(input + uint64(i%8192)*8)
			}
			c.Work(10)
			c.CommAdd32(hist+uint64(c.Rand()%bins)*4, 1)
		}
	})
	b.StopTimer()
	reportEngine(b, m)
}

// BenchmarkEngineContendedCounter measures the scheduler + hierarchy hot
// path with every core hammering one shared counter.
func BenchmarkEngineContendedCounter(b *testing.B) {
	for _, p := range []Protocol{MESI, MEUSI} {
		b.Run(p.String(), func(b *testing.B) {
			const cores = 16
			m := New(benchCfg(cores, p))
			ctr := m.Alloc(64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			m.Run(func(c *Ctx) {
				for i := 0; i < b.N; i++ {
					c.CommAdd64(ctr, 1)
				}
			})
			b.StopTimer()
			reportEngine(b, m)
		})
	}
}

// BenchmarkEngineLoadL1 isolates pure engine overhead: single core,
// L1-resident loads, no coherence traffic at all. This is the floor every
// scheduler handoff, loser-tree replay and backing-store access sits on.
func BenchmarkEngineLoadL1(b *testing.B) {
	m := New(benchCfg(1, MESI))
	a := m.Alloc(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			c.Load64(a)
		}
	})
	b.StopTimer()
	reportEngine(b, m)
}

// BenchmarkEngineCrossChip exercises the two-chip L4/global-directory
// path, where bank line-serialization tables see the most churn.
func BenchmarkEngineCrossChip(b *testing.B) {
	const cores = 32
	m := New(benchCfg(cores, MEUSI))
	base := m.Alloc(64*64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			c.CommAdd64(base+64*(c.Rand()%64), 1)
			if i%16 == 0 {
				c.Load64(base + 64*(c.Rand()%64))
			}
		}
	})
	b.StopTimer()
	reportEngine(b, m)
}
