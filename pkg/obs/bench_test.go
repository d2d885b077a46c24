package obs

import (
	"io"
	"testing"
)

func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_hist", "", 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMetricsExposition(b *testing.B) {
	r := NewRegistry()
	fill(r)
	RegisterRuntimeMetrics(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// workUnit is a stand-in for one unit of real request work: a cheap
// mixing step the compiler cannot delete, so the instrumented variant
// measures observability overhead against a realistic (non-empty)
// baseline.
//
//go:noinline
func workUnit(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

var benchSink uint64

// BenchmarkInstrumentationOverhead quantifies the tentpole's claim: the
// bare/instrumented delta is the full per-op cost of a counter add and a
// histogram observe.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		x := uint64(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x = workUnit(x)
		}
		benchSink = x
	})
	b.Run("instrumented", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("bench_ops_total", "")
		h := r.Histogram("bench_ns", "", 32)
		x := uint64(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x = workUnit(x)
			c.Inc()
			h.Observe(int64(x & 0xffff))
		}
		benchSink = x
	})
}
