// Package swbench is the software-side benchmark harness shared by
// cmd/commutebench and the "figsw"/"figsvc" experiments: it drives
// commutative-update implementations with the same workload shapes the
// simulator runs — contended counters and histograms under Zipf-skewed
// traffic — and reports wall-clock throughput. Where pkg/coup
// measures simulated cycles, swbench measures the real machine; the two
// sides of the repo's hardware-vs-simulation cross-validation.
//
// The traffic shapes are decoupled from what they drive: Run generates
// each goroutine's target sequence, then pushes it through a Driver — by
// default the in-process pkg/commute structures and their atomic/mutex
// baselines, or (via Config.NewDriver) any other transport, such as the
// batched HTTP driver that turns this package into a closed-loop load
// generator for the coupd service.
package swbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/pkg/obs"
)

// Impl selects the implementation under test.
type Impl string

const (
	// ImplCommute uses the pkg/commute sharded structures (software COUP).
	ImplCommute Impl = "commute"
	// ImplAtomic uses one shared word per cell updated with sync/atomic
	// RMWs — the MESI-atomics baseline.
	ImplAtomic Impl = "atomic"
	// ImplMutex guards the shared state with one sync.Mutex — the
	// pessimistic software baseline.
	ImplMutex Impl = "mutex"
)

// Impls lists the implementations in comparison order.
func Impls() []Impl { return []Impl{ImplCommute, ImplAtomic, ImplMutex} }

// Kind selects the workload shape.
type Kind string

const (
	// KindCounter updates Cells shared counters (Cells=1 is the paper's
	// Fig 1 maximally-contended counter).
	KindCounter Kind = "counter"
	// KindHist updates one shared histogram of Bins buckets (the Fig 2
	// shape).
	KindHist Kind = "hist"
)

// Kinds lists the workload shapes.
func Kinds() []Kind { return []Kind{KindCounter, KindHist} }

// Config describes one measured run.
type Config struct {
	Kind    Kind
	Impl    Impl
	Threads int // goroutines; GOMAXPROCS is not changed by the harness
	Ops     int // updates per goroutine
	Cells   int // counters for KindCounter (>= 1)
	Bins    int // buckets for KindHist (>= 1)
	// ZipfS skews target selection: > 1 draws cells/bins from a Zipf
	// distribution with exponent s (P(k) ∝ (1+k)^-s, so larger s = more
	// skew toward cell 0); <= 1 selects uniformly. 1.07 approximates
	// typical hot-key traffic.
	ZipfS float64
	// ReadEvery folds a reduce-on-read into the stream every N updates
	// (0 = update-only), pricing COUP's read path.
	ReadEvery int
	Seed      uint64
	// NewDriver overrides what the traffic drives. Nil selects the
	// in-process implementation named by Impl; cmd/commutebench installs
	// the batched HTTP driver here when it drives a coupd.
	NewDriver DriverMaker `json:"-"`
	// RecordLatency times every Update call into a shared obs log2
	// histogram so the Result carries p50/p99/max alongside throughput.
	// Off by default: the two time.Now calls per op are noise for
	// nanosecond-scale in-process drivers, but cheap next to an RPC —
	// cmd/commutebench turns this on against coupd. For batched
	// transports the op that triggers a flush absorbs the round-trip, so
	// the tail quantiles surface the RPC cost the mean hides.
	RecordLatency bool
}

// Result is one measured run.
type Result struct {
	Config
	Elapsed    time.Duration
	NsPerOp    float64
	MOpsPerSec float64
	// Total is the final reduced sum over all cells/bins, for validation:
	// it must equal Threads*Ops regardless of implementation.
	Total uint64
	// Per-update-call latency quantiles in nanoseconds, populated only
	// when Config.RecordLatency is set (p50/p99 interpolated within log2
	// buckets, max exact).
	LatP50Ns float64
	LatP99Ns float64
	LatMaxNs float64
}

// Run executes one configuration and returns its measurement. The target
// sequences are pre-generated outside the timed region so the loop
// measures only the update path, and every goroutine starts on a common
// barrier; each goroutine's final Flush (for drivers that buffer
// client-side) is inside the timed region, so batched transports pay for
// delivery. It returns an error if the driver's final reduction does not
// equal the number of updates issued (an equivalence failure).
func Run(c Config) (Result, error) {
	if c.Threads < 1 || c.Ops < 1 {
		return Result{}, fmt.Errorf("swbench: need threads >= 1 and ops >= 1, got %d, %d", c.Threads, c.Ops)
	}
	cells := c.Cells
	if c.Kind == KindHist {
		cells = c.Bins
	}
	if cells < 1 {
		cells = 1
	}
	targets := genTargets(c, cells)
	mk := c.NewDriver
	if mk == nil {
		mk = newInProcDriver
	}
	d, err := mk(c, cells)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()

	workers := make([]Worker, c.Threads)
	for t := range workers {
		workers[t] = d.Worker(t)
	}
	var lat *obs.Histogram
	if c.RecordLatency {
		lat = obs.NewHistogram(latencyBins)
	}
	flushErrs := make([]error, c.Threads)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for t := 0; t < c.Threads; t++ {
		wg.Add(1)
		go func(w Worker, seq []uint32, errp *error) {
			defer wg.Done()
			<-start
			switch {
			case lat != nil:
				// Latency-recording variant: the histogram writes are the
				// sharded update-only path, so timing N workers into one
				// histogram adds no cross-worker contention.
				for i, cell := range seq {
					u0 := time.Now()
					w.Update(int(cell))
					lat.Observe(time.Since(u0).Nanoseconds())
					if c.ReadEvery > 0 && (i+1)%c.ReadEvery == 0 {
						w.Read(int(cell))
					}
				}
			case c.ReadEvery > 0:
				for i, cell := range seq {
					w.Update(int(cell))
					if (i+1)%c.ReadEvery == 0 {
						w.Read(int(cell))
					}
				}
			default:
				for _, cell := range seq {
					w.Update(int(cell))
				}
			}
			*errp = w.Flush()
		}(workers[t], targets[t], &flushErrs[t])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	for t, ferr := range flushErrs {
		if ferr != nil {
			return Result{}, fmt.Errorf("swbench: worker %d flush: %w", t, ferr)
		}
	}
	total, err := d.Total()
	if err != nil {
		return Result{}, fmt.Errorf("swbench: total: %w", err)
	}
	want := uint64(c.Threads * c.Ops)
	if total != want {
		return Result{}, fmt.Errorf("swbench: %s/%s reduced to %d updates, want %d", c.Kind, c.Impl, total, want)
	}
	ops := float64(want)
	res := Result{
		Config:     c,
		Elapsed:    elapsed,
		NsPerOp:    float64(elapsed.Nanoseconds()) / ops,
		MOpsPerSec: ops / elapsed.Seconds() / 1e6,
		Total:      total,
	}
	if lat != nil {
		var s obs.HistSnapshot
		lat.Snapshot(&s)
		res.LatP50Ns = s.Quantile(0.50)
		res.LatP99Ns = s.Quantile(0.99)
		res.LatMaxNs = float64(s.Max)
	}
	return res, nil
}

// latencyBins spans 1ns to ~2s in log2 buckets, the full range a single
// update call (buffered append through blocking RPC) can take.
const latencyBins = 32

// Measure runs the configuration reps times (varying the seed) and
// returns the per-rep results plus the mean and CI95 half-width of
// ns/op, the same mean±CI reporting the simulator harness uses.
func Measure(c Config, reps int) (results []Result, meanNs, ci95 float64, err error) {
	if reps < 1 {
		reps = 1
	}
	// One untimed warmup at reduced size settles allocator and scheduler
	// state, which otherwise dominates the first rep's measurement.
	warm := c
	if warm.Ops > 1_000 {
		warm.Ops = 1_000
	}
	if _, werr := Run(warm); werr != nil {
		return nil, 0, 0, werr
	}
	ns := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		rc := c
		rc.Seed = c.Seed + uint64(r)
		res, rerr := Run(rc)
		if rerr != nil {
			return nil, 0, 0, rerr
		}
		results = append(results, res)
		ns = append(ns, res.NsPerOp)
	}
	return results, stats.Mean(ns), stats.CI95(ns), nil
}

// genTargets pre-draws each goroutine's cell sequence. Zipf skew uses
// math/rand's generator (rand/v2 has no Zipf); determinism per
// (seed, thread) keeps reruns comparable.
func genTargets(c Config, cells int) [][]uint32 {
	out := make([][]uint32, c.Threads)
	for t := range out {
		seq := make([]uint32, c.Ops)
		if cells > 1 {
			rng := rand.New(rand.NewSource(int64(c.Seed) + int64(t)*7919 + 1))
			if c.ZipfS > 1 {
				z := rand.NewZipf(rng, c.ZipfS, 1, uint64(cells-1))
				for i := range seq {
					seq[i] = uint32(z.Uint64())
				}
			} else {
				for i := range seq {
					seq[i] = uint32(rng.Intn(cells))
				}
			}
		}
		out[t] = seq
	}
	return out
}

// DefaultThreads returns the thread sweep 1,2,4,... capped at max (and at
// least reaching GOMAXPROCS, the point the -cpu axis of the package
// benchmarks sweeps to).
func DefaultThreads(max int) []int {
	if max < 1 {
		max = runtime.GOMAXPROCS(0)
		if max < 8 {
			max = 8
		}
	}
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
