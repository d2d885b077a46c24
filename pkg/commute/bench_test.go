package commute

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The contended benchmarks compare each structure against the two
// conventional implementations the paper's baselines correspond to: a
// single atomic (MESI atomics: every update is an RMW on one shared
// line) and a mutex (the pessimistic software fallback). Run across
// processor counts with:
//
//	go test -bench 'Counter|Histogram|MinMax|RefCount' -cpu 1,2,4,8,16 ./pkg/commute/
//
// b.RunParallel distributes the loop over GOMAXPROCS goroutines, so the
// -cpu sweep is the software analogue of the core-count x-axis in
// Fig 10/Fig 13.

func BenchmarkCounterCommute(b *testing.B) {
	c := NewCounter()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Value() != int64(b.N) {
		b.Fatalf("count %d, want %d", c.Value(), b.N)
	}
}

func BenchmarkCounterAtomic(b *testing.B) {
	var c atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Load() != int64(b.N) {
		b.Fatalf("count %d, want %d", c.Load(), b.N)
	}
}

func BenchmarkCounterMutex(b *testing.B) {
	var mu sync.Mutex
	var c int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			c++
			mu.Unlock()
		}
	})
}

// benchBins is small enough that the atomic baseline's histogram fits in
// L1 — contention, not capacity, is what is being measured.
const benchBins = 64

func BenchmarkHistogramCommute(b *testing.B) {
	h := NewHistogram(benchBins)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Inc(i % benchBins)
			i++
		}
	})
}

func BenchmarkHistogramAtomic(b *testing.B) {
	counts := make([]atomic.Uint64, benchBins)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			counts[i%benchBins].Add(1)
			i++
		}
	})
}

func BenchmarkHistogramMutex(b *testing.B) {
	counts := make([]uint64, benchBins)
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			counts[i%benchBins]++
			mu.Unlock()
		}
	})
}

func BenchmarkMinMaxCommute(b *testing.B) {
	m := NewMinMax()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			m.Observe(v % 1024)
			v++
		}
	})
}

func BenchmarkMinMaxAtomic(b *testing.B) {
	// CAS-loop max on a single shared word — the conventional pattern.
	var max atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			x := v % 1024
			for {
				cur := max.Load()
				if x <= cur || max.CompareAndSwap(cur, x) {
					break
				}
			}
			v++
		}
	})
}

func BenchmarkRefCountCommute(b *testing.B) {
	r := NewRefCount()
	r.Inc()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Inc()
			r.Dec()
		}
	})
}

func BenchmarkRefCountAtomic(b *testing.B) {
	// The XADD baseline: one shared count, every Inc and Dec an atomic add
	// on its line, and Dec's zero check exact.
	var r atomic.Int64
	r.Store(1)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Add(1)
			if r.Add(-1) == 0 {
				b.Error("count reached zero with a reference held")
			}
		}
	})
}

// BenchmarkCounterRead prices the reduction: reads get more expensive as
// shards multiply, which is the trade Value pays for Add's locality.
func BenchmarkCounterRead(b *testing.B) {
	c := NewCounter()
	c.Add(123)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += c.Value()
	}
	_ = sink
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := NewHistogram(benchBins)
	h.Inc(1)
	buf := make([]uint64, benchBins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = h.Snapshot(buf)
	}
}
