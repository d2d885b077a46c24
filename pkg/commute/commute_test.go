package commute

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/ops"
)

// stressDims picks goroutine and per-goroutine op counts: heavy enough to
// force shard contention and escalation races, small enough for -race CI.
func stressDims(t *testing.T) (goroutines, opsPer int) {
	if testing.Short() {
		return 8, 2_000
	}
	return 16, 20_000
}

func TestShardPadding(t *testing.T) {
	if s := unsafe.Sizeof(padWord{}); s != ops.LineBytes {
		t.Errorf("padWord is %d bytes, want %d", s, ops.LineBytes)
	}
	if s := unsafe.Sizeof(minmaxShard{}); s != ops.LineBytes {
		t.Errorf("minmaxShard is %d bytes, want %d", s, ops.LineBytes)
	}
	if s := unsafe.Sizeof(refShard{}); s != ops.LineBytes {
		t.Errorf("refShard is %d bytes, want %d", s, ops.LineBytes)
	}
}

// parallel runs fn on n goroutines with a common start barrier.
func parallel(n int, fn func(g int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fn(g)
		}()
	}
	close(start)
	wg.Wait()
}

func TestCounterEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	c := NewCounter()
	var want atomic.Int64
	parallel(goroutines, func(g int) {
		rng := rand.New(rand.NewPCG(uint64(g), 7))
		var local int64
		for i := 0; i < opsPer; i++ {
			d := rng.Int64N(21) - 10 // [-10, 10]
			c.Add(d)
			local += d
		}
		want.Add(local)
	})
	if got := c.Value(); got != want.Load() {
		t.Errorf("Counter.Value = %d, want %d", got, want.Load())
	}
}

func TestHistogramEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	const bins = 97 // deliberately not line-aligned
	h := NewHistogram(bins)
	want := make([]uint64, bins)
	var mu sync.Mutex
	parallel(goroutines, func(g int) {
		rng := rand.New(rand.NewPCG(uint64(g), 11))
		local := make([]uint64, bins)
		for i := 0; i < opsPer; i++ {
			b := rng.IntN(bins)
			d := rng.Uint64N(4) + 1
			h.Add(b, d)
			local[b] += d
		}
		mu.Lock()
		for b := range want {
			want[b] += local[b]
		}
		mu.Unlock()
	})
	got := h.Snapshot(nil)
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bin %d: concurrent %d, sequential %d", b, got[b], want[b])
		}
		if one := h.Bin(b); one != want[b] {
			t.Fatalf("Bin(%d) = %d, want %d", b, one, want[b])
		}
	}
}

func TestMinMaxEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	m := NewMinMax()
	if _, ok := m.Min(); ok {
		t.Error("empty MinMax reports an observation")
	}
	wantMin := make([]int64, goroutines)
	wantMax := make([]int64, goroutines)
	parallel(goroutines, func(g int) {
		rng := rand.New(rand.NewPCG(uint64(g), 13))
		lo, hi := int64(1<<62), int64(-1<<62)
		for i := 0; i < opsPer; i++ {
			v := rng.Int64() - (1 << 62)
			m.Observe(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		wantMin[g], wantMax[g] = lo, hi
	})
	lo, hi := wantMin[0], wantMax[0]
	for g := 1; g < goroutines; g++ {
		if wantMin[g] < lo {
			lo = wantMin[g]
		}
		if wantMax[g] > hi {
			hi = wantMax[g]
		}
	}
	if v, ok := m.Min(); !ok || v != lo {
		t.Errorf("Min = %d,%v want %d,true", v, ok, lo)
	}
	if v, ok := m.Max(); !ok || v != hi {
		t.Errorf("Max = %d,%v want %d,true", v, ok, hi)
	}
	if n := m.N(); n != uint64(goroutines*opsPer) {
		t.Errorf("N = %d, want %d", n, goroutines*opsPer)
	}
}

// refcountContract runs the reference-counting usage contract: every
// goroutine starts holding one reference (the count starts at
// goroutines), briefly acquires and releases extra references, then drops
// its own. The count never touches zero before the last release.
func refcountContract(t *testing.T, r *RefCount, goroutines, opsPer int) int64 {
	r.Add(int64(goroutines))
	var zeroReports atomic.Int64
	parallel(goroutines, func(g int) {
		for i := 0; i < opsPer; i++ {
			r.Inc()
			if r.Dec() {
				zeroReports.Add(1)
			}
		}
		if r.Dec() {
			zeroReports.Add(1)
		}
	})
	if got := r.read(); got != 0 {
		t.Errorf("final count %d, want 0", got)
	}
	return zeroReports.Load()
}

func TestRefCountShardedZeroAtMostOnce(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := NewRefCount()
	got := refcountContract(t, r, goroutines, opsPer)
	if got > 1 {
		t.Errorf("sharded: %d zero reports, want at most 1", got)
	}
	// Detection may have been deferred by cross-shard cancellation; the
	// escalated fold must then confirm zero exactly.
	if v := r.Escalate(); v != 0 {
		t.Errorf("Escalate = %d, want 0", v)
	}
	if r.mode.Load() != 1 {
		t.Error("not escalated after Escalate")
	}
}

// TestRefCountSingleShardExactZero: with one shard the SNZI-style
// indicator is exact, so the zero must be detected without any explicit
// escalation — and the detection itself must have escalated the counter.
func TestRefCountSingleShardExactZero(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := newRefCount(1)
	if got := refcountContract(t, r, goroutines, opsPer); got != 1 {
		t.Errorf("single-shard: %d zero reports, want exactly 1", got)
	}
	if r.mode.Load() != 1 {
		t.Error("zero detection did not escalate")
	}
}

// TestRefCountEscalateMidFlight folds the shards while updates are in
// flight: no delta may be lost or double-counted across the switch.
func TestRefCountEscalateMidFlight(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := NewRefCount()
	r.Inc()
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Escalate() // idempotent; first call wins
			}
		}
	}()
	const extra = 3
	parallel(goroutines, func(g int) {
		for i := 0; i < opsPer; i++ {
			r.Inc()
			r.Dec()
		}
		for i := 0; i < extra; i++ {
			r.Inc()
		}
	})
	close(done)
	want := int64(1 + goroutines*extra)
	if got := r.read(); got != want {
		t.Errorf("count after racing escalation = %d, want %d", got, want)
	}
	if got := r.Escalate(); got != want {
		t.Errorf("Escalate = %d, want %d", got, want)
	}
}

func TestRefCountReadAndAdd(t *testing.T) {
	r := NewRefCount()
	r.Add(15)
	r.Add(-3)
	if got := r.read(); got != 12 {
		t.Errorf("read = %d, want 12", got)
	}
	r.Escalate()
	r.Add(-2)
	if got := r.read(); got != 10 {
		t.Errorf("escalated read = %d, want 10", got)
	}
}

// TestSnapshotHelpers: every structure's Snapshot reduces into a reused
// buffer with one consistent contract — fill the prefix, allocate only
// when the buffer is too small, observe all prior updates.
func TestSnapshotHelpers(t *testing.T) {
	c := NewCounter()
	c.Add(41)
	c.Inc()
	if got := c.Snapshot(nil); len(got) != 1 || got[0] != 42 {
		t.Errorf("Counter.Snapshot(nil) = %v, want [42]", got)
	}
	buf := make([]int64, 8)
	if got := c.Snapshot(buf); len(got) != 1 || got[0] != 42 || &got[0] != &buf[0] {
		t.Errorf("Counter.Snapshot did not reuse the buffer: %v", got)
	}

	m := NewMinMax()
	if got := m.Snapshot(buf); got[0] != 0 {
		t.Errorf("empty MinMax.Snapshot n = %d, want 0", got[0])
	}
	m.Observe(-3)
	m.Observe(7)
	m.Observe(5)
	if got := m.Snapshot(buf); len(got) != 3 || got[0] != 3 || got[1] != -3 || got[2] != 7 {
		t.Errorf("MinMax.Snapshot = %v, want [3 -3 7]", got)
	}

	r := NewRefCount()
	r.Add(2)
	r.Inc()
	if got := r.Snapshot(buf); len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Errorf("RefCount.Snapshot = %v, want [3 0]", got)
	}
	r.Escalate()
	if got := r.Snapshot(buf); got[0] != 3 || got[1] != 1 {
		t.Errorf("escalated RefCount.Snapshot = %v, want [3 1]", got)
	}
}

// TestSnapshotHelpersNoAlloc pins the no-alloc contract: with a large
// enough destination buffer, no Snapshot allocates.
func TestSnapshotHelpersNoAlloc(t *testing.T) {
	c := NewCounter()
	c.Inc()
	h := NewHistogram(64)
	h.Inc(3)
	m := NewMinMax()
	m.Observe(9)
	r := NewRefCount()
	r.Inc()
	i64 := make([]int64, 8)
	u64 := make([]uint64, 64)
	for name, fn := range map[string]func(){
		"Counter.Snapshot":   func() { c.Snapshot(i64) },
		"Histogram.Snapshot": func() { h.Snapshot(u64) },
		"MinMax.Snapshot":    func() { m.Snapshot(i64) },
		"RefCount.Snapshot":  func() { r.Snapshot(i64) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f per call with a sized buffer", name, allocs)
		}
	}
}
