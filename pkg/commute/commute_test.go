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

func TestOpLaws(t *testing.T) {
	// Integer samples for the exact ops; the float ops get small-integer
	// float bit patterns in both lanes so addition is exact and the
	// identity laws hold bit-for-bit.
	intSamples := []uint64{0, 1, 2, 0xFFFF, 0x1234_5678_9ABC_DEF0, ^uint64(0)}
	f32 := func(lo, hi float32) uint64 {
		return uint64(*(*uint32)(unsafe.Pointer(&hi)))<<32 | uint64(*(*uint32)(unsafe.Pointer(&lo)))
	}
	f64 := func(v float64) uint64 { return *(*uint64)(unsafe.Pointer(&v)) }
	samples := map[string][]uint64{
		"addf32": {0, f32(1, 2), f32(3, 4), f32(100, 0.5)},
		"addf64": {0, f64(1), f64(2), f64(1024.25)},
	}
	for _, o := range Ops() {
		s, ok := samples[o.Name()]
		if !ok {
			s = intSamples
		}
		if err := OpLawsOK(o, s...); err != nil {
			t.Error(err)
		}
	}
}

func TestOpByName(t *testing.T) {
	for _, o := range Ops() {
		got, err := OpByName(o.Name())
		if err != nil || got.Name() != o.Name() {
			t.Errorf("OpByName(%q) = %v, %v", o.Name(), got, err)
		}
	}
	if _, err := OpByName("nope"); err == nil {
		t.Error("OpByName(nope) succeeded")
	}
}

func TestWithShards(t *testing.T) {
	if _, err := NewCounter(WithShards(0)); err == nil {
		t.Error("WithShards(0) accepted")
	}
	for n, want := range map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16} {
		c := MustCounter(WithShards(n))
		if c.Shards() != want {
			t.Errorf("WithShards(%d): %d shards, want %d", n, c.Shards(), want)
		}
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

// TestShardedEquivalence: for every built-in op, a concurrent Apply storm
// must reduce to exactly the sequential fold of the same operand
// multiset — the defining property of a commutative monoid, and the
// correctness claim COUP's verification establishes for the protocol.
func TestShardedEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	for _, o := range Ops() {
		o := o
		t.Run(o.Name(), func(t *testing.T) {
			t.Parallel()
			// Operand streams: exact-integer floats for the FP adds (so the
			// fold is order-insensitive bit-for-bit), full-width randoms for
			// the bitwise and integer ops.
			operands := make([][]uint64, goroutines)
			for g := range operands {
				rng := rand.New(rand.NewPCG(uint64(g), 42))
				operands[g] = make([]uint64, opsPer)
				for i := range operands[g] {
					switch o.Name() {
					case "addf32":
						// Small enough that each lane's total stays under
						// 2^24, where float32 integers are exact.
						lo, hi := float32(rng.IntN(32)), float32(rng.IntN(32))
						operands[g][i] = uint64(*(*uint32)(unsafe.Pointer(&hi)))<<32 |
							uint64(*(*uint32)(unsafe.Pointer(&lo)))
					case "addf64":
						v := float64(rng.IntN(1024))
						operands[g][i] = *(*uint64)(unsafe.Pointer(&v))
					default:
						operands[g][i] = rng.Uint64()
					}
				}
			}
			want := o.Identity()
			for _, row := range operands {
				for _, v := range row {
					want = o.Combine(want, v)
				}
			}
			s := MustSharded(o, WithShards(8))
			parallel(goroutines, func(g int) {
				for _, v := range operands[g] {
					s.Apply(v)
				}
			})
			if got := s.Read(); got != want {
				t.Errorf("concurrent %s fold = %#x, sequential = %#x", o.Name(), got, want)
			}
		})
	}
}

func TestShardedDrainConcurrent(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	s := MustSharded(Add64, WithShards(4))
	var drained atomic.Uint64
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
				drained.Add(s.Drain())
			}
		}
	}()
	parallel(goroutines, func(g int) {
		for i := 0; i < opsPer; i++ {
			s.Apply(1)
		}
	})
	close(done)
	<-stopped // a Drain in flight at close must land in drained before we read it
	total := drained.Load() + s.Drain()
	if want := uint64(goroutines * opsPer); total != want {
		t.Errorf("drained total %d, want %d (updates lost or double-counted)", total, want)
	}
}

func TestCounterEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	c := MustCounter()
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
	if got := c.Drain(); got != want.Load() {
		t.Errorf("Counter.Drain = %d, want %d", got, want.Load())
	}
	if got := c.Value(); got != 0 {
		t.Errorf("Counter.Value after Drain = %d, want 0", got)
	}
}

func TestHistogramEquivalence(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	const bins = 97 // deliberately not line-aligned
	h := MustHistogram(bins)
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
	m := MustMinMax()
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

// TestCustomOpGCD exercises a user-defined op end to end: gcd is a
// commutative, associative monoid with identity 0.
func TestCustomOpGCD(t *testing.T) {
	gcd := NewOp("gcd", 0, func(a, b uint64) uint64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	})
	if err := OpLawsOK(gcd, 0, 6, 10, 15, 1024); err != nil {
		t.Fatal(err)
	}
	s := MustSharded(gcd, WithShards(4))
	const k = 12
	parallel(8, func(g int) {
		for i := 1; i <= 100; i++ {
			s.Apply(uint64(i) * k * uint64(g+1))
		}
	})
	if got := s.Read(); got != k {
		t.Errorf("gcd fold = %d, want %d", got, k)
	}
}

// refcountContract runs the reference-counting usage contract: every
// goroutine starts holding one reference (initial = goroutines), briefly
// acquires and releases extra references, then drops its own. The count
// never touches zero before the last release.
func refcountContract(t *testing.T, r *RefCount, goroutines, opsPer int) int64 {
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
	if got := r.Read(); got != 0 {
		t.Errorf("final count %d, want 0", got)
	}
	return zeroReports.Load()
}

func TestRefCountPlainExactZero(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := MustRefCount(int64(goroutines), RefPlain)
	if !r.Escalated() {
		t.Error("plain refcount not in exact mode")
	}
	if got := refcountContract(t, r, goroutines, opsPer); got != 1 {
		t.Errorf("plain: %d zero reports, want exactly 1", got)
	}
}

func TestRefCountShardedZeroAtMostOnce(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := MustRefCount(int64(goroutines), RefSharded)
	got := refcountContract(t, r, goroutines, opsPer)
	if got > 1 {
		t.Errorf("sharded: %d zero reports, want at most 1", got)
	}
	// Detection may have been deferred by cross-shard cancellation; the
	// escalated fold must then confirm zero exactly.
	if v := r.Escalate(); v != 0 {
		t.Errorf("Escalate = %d, want 0", v)
	}
	if !r.Escalated() {
		t.Error("not escalated after Escalate")
	}
}

// TestRefCountSingleShardExactZero: with one shard the SNZI-style
// indicator is exact, so the zero must be detected without any explicit
// escalation — and the detection itself must have escalated the counter.
func TestRefCountSingleShardExactZero(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := MustRefCount(int64(goroutines), RefSharded, WithShards(1))
	if got := refcountContract(t, r, goroutines, opsPer); got != 1 {
		t.Errorf("single-shard: %d zero reports, want exactly 1", got)
	}
	if !r.Escalated() {
		t.Error("zero detection did not escalate")
	}
}

// TestRefCountEscalateMidFlight folds the shards while updates are in
// flight: no delta may be lost or double-counted across the switch.
func TestRefCountEscalateMidFlight(t *testing.T) {
	goroutines, opsPer := stressDims(t)
	r := MustRefCount(1, RefSharded)
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
	if got := r.Read(); got != want {
		t.Errorf("count after racing escalation = %d, want %d", got, want)
	}
	if got := r.Escalate(); got != want {
		t.Errorf("Escalate = %d, want %d", got, want)
	}
}

func TestRefCountReadAndAdd(t *testing.T) {
	for _, style := range []RefStyle{RefPlain, RefSharded} {
		r := MustRefCount(5, style)
		r.Add(10)
		r.Add(-3)
		if got := r.Read(); got != 12 {
			t.Errorf("%v: Read = %d, want 12", style, got)
		}
	}
	if _, err := NewRefCount(-1, RefPlain); err == nil {
		t.Error("negative initial refcount accepted")
	}
}

func TestShardedRejectsNilOp(t *testing.T) {
	if _, err := NewSharded(nil); err == nil {
		t.Error("NewSharded(nil) accepted")
	}
}

// TestSnapshotHelpers: every structure's Snapshot reduces into a reused
// buffer with one consistent contract — fill the prefix, allocate only
// when the buffer is too small, observe all prior updates.
func TestSnapshotHelpers(t *testing.T) {
	c := MustCounter()
	c.Add(41)
	c.Inc()
	if got := c.Snapshot(nil); len(got) != 1 || got[0] != 42 {
		t.Errorf("Counter.Snapshot(nil) = %v, want [42]", got)
	}
	buf := make([]int64, 8)
	if got := c.Snapshot(buf); len(got) != 1 || got[0] != 42 || &got[0] != &buf[0] {
		t.Errorf("Counter.Snapshot did not reuse the buffer: %v", got)
	}

	m := MustMinMax()
	if got := m.Snapshot(buf); got[0] != 0 {
		t.Errorf("empty MinMax.Snapshot n = %d, want 0", got[0])
	}
	m.Observe(-3)
	m.Observe(7)
	m.Observe(5)
	if got := m.Snapshot(buf); len(got) != 3 || got[0] != 3 || got[1] != -3 || got[2] != 7 {
		t.Errorf("MinMax.Snapshot = %v, want [3 -3 7]", got)
	}

	r := MustRefCount(2, RefSharded)
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
	c := MustCounter()
	c.Inc()
	h := MustHistogram(64)
	h.Inc(3)
	m := MustMinMax()
	m.Observe(9)
	r := MustRefCount(1, RefSharded)
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
