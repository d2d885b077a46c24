package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// fill populates r with one of every metric kind in a fixed state.
func fill(r *Registry) {
	c := r.Counter("test_ops_total", "Operations applied.")
	c.Add(41)
	c.Inc()
	d := r.UpDownCounter("test_in_flight", "Requests in flight.")
	d.Add(3)
	d.Dec()
	r.Gauge("test_structures", "Live structures.", func() int64 { return 7 })
	h := r.Histogram("test_latency_ns", "Latency in nanoseconds.", 8)
	for _, v := range []int64{1, 2, 3, 900, 70} {
		h.Observe(v)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	fill(a)
	fill(b)

	var pages [3]bytes.Buffer
	if err := a.WriteMetrics(&pages[0]); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteMetrics(&pages[1]); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMetrics(&pages[2]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pages[0].Bytes(), pages[1].Bytes()) {
		t.Errorf("same registry scraped twice differs:\n--- first\n%s--- second\n%s", pages[0].String(), pages[1].String())
	}
	if !bytes.Equal(pages[0].Bytes(), pages[2].Bytes()) {
		t.Errorf("identically-filled registries differ:\n--- a\n%s--- b\n%s", pages[0].String(), pages[2].String())
	}
}

func TestExpositionSortedFamilies(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of order.
	r.Counter("zz_last_total", "Last.")
	r.Counter("aa_first_total", "First.")
	r.Histogram("mm_middle", "Middle.", 4)

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var families []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	want := []string{"aa_first_total", "mm_middle", "zz_last_total"}
	if len(families) != len(want) {
		t.Fatalf("got families %v, want %v", families, want)
	}
	for i := range want {
		if families[i] != want[i] {
			t.Fatalf("family order %v, want %v", families, want)
		}
	}
}

func TestExpositionContents(t *testing.T) {
	r := NewRegistry()
	fill(r)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter\ntest_ops_total 42\n",
		"# TYPE test_in_flight gauge\ntest_in_flight 2\n",
		"# TYPE test_structures gauge\ntest_structures 7\n",
		"# TYPE test_latency_ns histogram\n",
		`test_latency_ns_bucket{le="1"} 1` + "\n",
		`test_latency_ns_bucket{le="3"} 3` + "\n",
		`test_latency_ns_bucket{le="+Inf"} 5` + "\n",
		"test_latency_ns_sum 976\n",
		"test_latency_ns_count 5\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition page missing %q\npage:\n%s", want, page)
		}
	}
}

func TestRegistryGetOrCreateAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "X.")
	c2 := r.Counter("x_total", "ignored on reuse")
	if c1 != c2 {
		t.Error("Counter with same name returned distinct handles")
	}
	h1 := r.Histogram("h", "H.", 8)
	h2 := r.Histogram("h", "H.", 32)
	if h1 != h2 {
		t.Error("Histogram with same name returned distinct handles")
	}
	if h2.Bins() != 8 {
		t.Errorf("reused histogram bins = %d, want creation-time 8", h2.Bins())
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("kind mismatch counter->histogram", func() { r.Histogram("x_total", "", 4) })
	mustPanic("kind mismatch counter->updown", func() { r.UpDownCounter("x_total", "") })
	mustPanic("kind mismatch histogram->gauge", func() { r.Gauge("h", "", func() int64 { return 0 }) })
	mustPanic("invalid name", func() { r.Counter("9starts_with_digit", "") })
	mustPanic("invalid rune", func() { r.Counter("has space", "") })
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(8)
	cases := []struct {
		v   int64
		bin int
	}{
		{-3, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{255, 7}, {256, 7}, {1 << 40, 7}, // clamp to last bucket
	}
	for _, c := range cases {
		if got := h.bucketOf(c.v); got != c.bin {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bin)
		}
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := NewHistogram(20)
	// 1000 observations of value 100, 10 of value 100000.
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != 1010 {
		t.Fatalf("Count = %d, want 1010", s.Count)
	}
	if want := int64(1000*100 + 10*100000); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	if s.Min != 100 || s.Max != 100000 {
		t.Fatalf("Min/Max = %d/%d, want 100/100000", s.Min, s.Max)
	}
	if p0 := s.Quantile(0); p0 != 100 {
		t.Errorf("p0 = %v, want exact min 100", p0)
	}
	if p100 := s.Quantile(1); p100 != 100000 {
		t.Errorf("p100 = %v, want exact max 100000", p100)
	}
	p50 := s.Quantile(0.5)
	if p50 < 100 || p50 >= 128 {
		t.Errorf("p50 = %v, want within bucket [100, 128)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 100 || p99 > 100000 {
		t.Errorf("p99 = %v outside observed range", p99)
	}
	// p > 1 - 10/1010 must land in the tail bucket, clamped to Max.
	p999 := s.Quantile(0.9999)
	if p999 < 65536 || p999 > 100000 {
		t.Errorf("p99.99 = %v, want in tail [65536, 100000]", p999)
	}

	// Snapshot reuses the buckets slice.
	buckets := s.Buckets
	h.Snapshot(&s)
	if &s.Buckets[0] != &buckets[0] {
		t.Error("Snapshot reallocated Buckets despite sufficient capacity")
	}
}

func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("allocs_c_total", "")
	h := r.Histogram("allocs_h", "", 16)
	ring := NewRing(64)

	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op on the warm path", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op on the warm path", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(1234) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op on the warm path", n)
	}
	if n := testing.AllocsPerRun(100, func() { ring.Record(EvBatchApply, 1, 2, 3) }); n != 0 {
		t.Errorf("Ring.Record allocates %v/op on the warm path", n)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	RegisterRuntimeMetrics(r) // idempotent

	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	for _, fam := range []string{"go_goroutines", "go_gc_cycles_total", "go_heap_alloc_bytes"} {
		if !strings.Contains(page, "# TYPE "+fam+" gauge\n") {
			t.Errorf("missing runtime gauge %s\npage:\n%s", fam, page)
		}
	}
	if g := r.Gauge("go_goroutines", "", nil); g.Value() < 1 {
		t.Errorf("go_goroutines = %d, want >= 1", g.Value())
	}
	if g := r.Gauge("go_heap_alloc_bytes", "", nil); g.Value() <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", g.Value())
	}
}

// TestConcurrentWritesAndScrapes exercises the sharded write paths plus
// the exposition path under -race.
func TestConcurrentWritesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	h := r.Histogram("race_hist", "", 16)
	const workers, perWorker = 8, 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
}
