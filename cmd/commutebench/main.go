// Command commutebench measures commutative updates on the real machine:
// it sweeps thread counts over the paper's contended workload shapes
// (counter, hist) with Zipf-skewed traffic and reports mean ± CI95 over
// seeded repetitions — the same reporting shape the simulator harness
// (coup.Sweep / coupsim -reps) uses, so the two sides of the "figsw"
// cross-validation read alike.
//
// The flags pick what the traffic drives. By default it is the
// pkg/commute sharded structures, next to shared-atomic and mutex
// baselines, in process. With -addr it is a running coupd, and with
// -self an in-process coupd over loopback (the one-command service
// demo): each worker buffers -batch updates per POST /v1/batch and sends
// them exactly once through its own dedup session, retrying transport
// faults, 5xx and 429 saturation under -retry-budget. Every run is
// equivalence-checked — the reduction (for coupd, the server-side
// reduction's delta) must equal the updates issued, or the run fails —
// and against coupd every update call's latency is recorded.
//
// Usage:
//
//	commutebench                          # both kinds, all impls, 1..8 threads
//	commutebench -kind counter -cells 1   # the Fig 1 maximally-contended counter
//	commutebench -kind hist -bins 512 -zipf 1.2
//	commutebench -threads 1,4,16 -reps 5 -json
//	commutebench -reads 64                # fold a reduce-on-read in every 64 updates
//	commutebench -addr http://127.0.0.1:7077 -kind hist -batch 256
//	commutebench -self                    # in-process coupd over loopback
//
// ns/op measures wall-clock per update issued (against coupd, per update
// delivered: batching amortizes the round trip); the commute/atomic
// column is the speedup over the atomic baseline at the same thread
// count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/swbench"
	"repro/pkg/coupd"
)

// point is one JSON-emitted data point: the per-rep mean and CI95, plus
// the configuration that produced it.
type point struct {
	Kind         string  `json:"kind"`
	Impl         string  `json:"impl"`
	Threads      int     `json:"threads"`
	Reps         int     `json:"reps"`
	MeanNsPerOp  float64 `json:"mean_ns_per_op"`
	CI95NsPerOp  float64 `json:"ci95_ns_per_op"`
	MOpsPerSec   float64 `json:"mops_per_sec"`
	UpdatesPerS  float64 `json:"updates_per_sec"`
	CI95UpdatesS float64 `json:"ci95_updates_per_sec"`
	*latency             // against coupd only
}

// latency is a coupd point's batch size and its per-update-call latency
// from the client-side obs histogram each rep records: p50/p99 are the
// mean across reps, max is the worst rep, and the rep_* arrays carry
// every rep's own quantiles.
type latency struct {
	Batch    int       `json:"batch"`
	P50Ns    float64   `json:"p50_ns"`
	P99Ns    float64   `json:"p99_ns"`
	MaxNs    float64   `json:"max_ns"`
	RepP50Ns []float64 `json:"rep_p50_ns"`
	RepP99Ns []float64 `json:"rep_p99_ns"`
	RepMaxNs []float64 `json:"rep_max_ns"`
}

func main() {
	var (
		kindF    = flag.String("kind", "all", "workload shape: counter, hist, or all")
		implF    = flag.String("impl", "all", "comma-separated impls: commute, atomic, mutex (or all); coupd serves commute only")
		threadsF = flag.String("threads", "", "comma-separated goroutine counts (default 1,2,4,...,max(8,GOMAXPROCS))")
		ops      = flag.Int("ops", 200_000, "updates per goroutine")
		cells    = flag.Int("cells", 1, "distinct counters (counter kind; 1 = maximally contended)")
		bins     = flag.Int("bins", 512, "histogram buckets (hist kind)")
		zipf     = flag.Float64("zipf", 1.07, "Zipf skew s (> 1; <= 1 selects targets uniformly)")
		reads    = flag.Int("reads", 0, "fold a reduce-on-read into every N updates (0 = update-only)")
		reps     = flag.Int("reps", 3, "seeded repetitions per data point (mean ± CI95)")
		seed     = flag.Uint64("seed", 1, "base seed (rep r runs with seed+r)")
		asJSON   = flag.Bool("json", false, "emit data points as JSON")
		addr     = flag.String("addr", "", "drive the coupd at this base URL (http://host:port) instead of the in-process structures")
		self     = flag.Bool("self", false, "drive an in-process coupd over loopback (one-command demo; ignores -addr)")
		batch    = flag.Int("batch", 256, "updates per POST /v1/batch request (coupd only)")
		budget   = flag.Duration("retry-budget", 30*time.Second, "per-batch exactly-once retry budget against coupd (transport faults, 5xx, 429 backoff)")
	)
	flag.Parse()

	remote := *self || *addr != ""
	kinds, err := parseList(*kindF, swbench.Kinds, swbench.ParseKind)
	if err != nil {
		fail(2, err)
	}
	impls, err := parseList(*implF, swbench.Impls, swbench.ParseImpl)
	if err != nil {
		fail(2, err)
	}
	if remote {
		if strings.EqualFold(*implF, "all") {
			impls = []swbench.Impl{swbench.ImplCommute}
		}
		for _, impl := range impls {
			if impl != swbench.ImplCommute {
				fail(2, fmt.Errorf("impl %s runs in process only; coupd serves %s", impl, swbench.ImplCommute))
			}
		}
	}
	threads, err := parseThreads(*threadsF)
	if err != nil {
		fail(2, err)
	}

	base := *addr
	var driver swbench.DriverMaker
	if remote {
		if *self {
			srv, err := coupd.New()
			if err != nil {
				fail(1, err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			base = ts.URL
			fmt.Fprintf(os.Stderr, "commutebench: in-process coupd at %s\n", base)
		}
		driver = swbench.HTTPDriver(base, *batch, nil, coupd.WithRetryBudget(*budget))
	}

	var points []point
	for _, kind := range kinds {
		t := &stats.Table{
			Title: fmt.Sprintf("%s: %d ops/thread, cells=%d bins=%d zipf=%.2f reads=%d, GOMAXPROCS=%d",
				kind, *ops, *cells, *bins, *zipf, *reads, runtime.GOMAXPROCS(0)),
			Headers: []string{"threads"},
		}
		if remote {
			t.Title = fmt.Sprintf("coupd at %s, batch=%d, %s", base, *batch, t.Title)
			t.AddNote("every run equivalence-checked: server-side reduction delta == client applied-op count (threads*ops), exactly")
			t.AddNote("p50/p99/max are per-update-call latency from the client-side obs histogram (the op that flushes a batch absorbs the round-trip)")
		}
		for _, impl := range impls {
			t.Headers = append(t.Headers, string(impl)+" ns/op")
			if remote {
				t.Headers = append(t.Headers, "±ci95", "updates/s", "p50", "p99", "max")
			}
		}
		if slices.Contains(impls, swbench.ImplCommute) && slices.Contains(impls, swbench.ImplAtomic) {
			t.Headers = append(t.Headers, "commute/atomic")
		}
		var worstCI float64
		for _, th := range threads {
			row := []string{fmt.Sprint(th)}
			means := map[swbench.Impl]float64{}
			for _, impl := range impls {
				c := swbench.Config{
					Kind: kind, Impl: impl, Threads: th, Ops: *ops,
					Cells: *cells, Bins: *bins, ZipfS: *zipf, ReadEvery: *reads, Seed: *seed,
					NewDriver: driver, RecordLatency: remote,
				}
				results, mean, ci, err := swbench.Measure(c, *reps)
				if err != nil {
					fail(1, err)
				}
				means[impl] = mean
				if mean > 0 && ci/mean > worstCI {
					worstCI = ci / mean
				}
				p := newPoint(c, *batch, results, mean, ci)
				row = append(row, stats.F(mean))
				if p.latency != nil {
					row = append(row, stats.F(ci), stats.F(p.UpdatesPerS),
						stats.F(p.P50Ns), stats.F(p.P99Ns), stats.F(p.MaxNs))
				}
				points = append(points, p)
			}
			if a, ok := means[swbench.ImplAtomic]; ok {
				if c, ok2 := means[swbench.ImplCommute]; ok2 && c > 0 {
					row = append(row, stats.F(a/c)+"x")
				}
			}
			t.AddRow(row...)
		}
		if *reps > 1 {
			t.AddNote("each cell is the mean of %d seeded reps; worst-case ±CI95 is %.1f%% of the mean", *reps, worstCI*100)
		}
		if !*asJSON {
			fmt.Println(t.String())
		}
	}
	if *asJSON {
		blob, err := json.MarshalIndent(points, "", "  ")
		if err != nil {
			fail(1, err)
		}
		fmt.Printf("%s\n", blob)
	}
}

// newPoint summarizes one measured configuration's reps. batch is
// reported only for latency-recording (coupd) runs.
func newPoint(c swbench.Config, batch int, results []swbench.Result, mean, ci float64) point {
	ups := make([]float64, len(results))
	for i, r := range results {
		ups[i] = r.MOpsPerSec * 1e6
	}
	p := point{
		Kind: string(c.Kind), Impl: string(c.Impl), Threads: c.Threads, Reps: len(results),
		MeanNsPerOp: mean, CI95NsPerOp: ci, MOpsPerSec: stats.Mean(ups) / 1e6,
		UpdatesPerS: stats.Mean(ups), CI95UpdatesS: stats.CI95(ups),
	}
	if !c.RecordLatency {
		return p
	}
	l := &latency{
		Batch:    batch,
		RepP50Ns: make([]float64, len(results)),
		RepP99Ns: make([]float64, len(results)),
		RepMaxNs: make([]float64, len(results)),
	}
	for i, r := range results {
		l.RepP50Ns[i], l.RepP99Ns[i], l.RepMaxNs[i] = r.LatP50Ns, r.LatP99Ns, r.LatMaxNs
		l.MaxNs = max(l.MaxNs, r.LatMaxNs)
	}
	l.P50Ns, l.P99Ns = stats.Mean(l.RepP50Ns), stats.Mean(l.RepP99Ns)
	p.latency = l
	return p
}

func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "commutebench: %v\n", err)
	os.Exit(code)
}

// parseList resolves a comma-separated list of names with parse, or
// every name for "all".
func parseList[T any](s string, all func() []T, parse func(string) (T, error)) ([]T, error) {
	if strings.EqualFold(s, "all") {
		return all(), nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseThreads(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return swbench.DefaultThreads(0), nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
