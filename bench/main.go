// Command bench is the repository's end-to-end benchmark. It drives the
// simulator through coup.Sweeper and the coupd service through a real
// loopback socket with coupd.Client, checks every output, and prints
// each metric as "workload metric value unit" followed by one JSON
// summary line. See README.md for the workloads, the metrics and how to
// run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
)

// metricDef names a summary-line metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of the summary line with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatches holds them together). Every workload must
// measure every end-to-end metric. A per-layer metric of a layer the
// workload never calls (a simulator layer under coupd-mixed) reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "ops/s"},
}

var perLayer = []metricDef{
	{"coup.spec.us_per_spec", "us/spec"},
	{"coup.unattributed.us_per_spec", "us/spec"},
	{"workloads.setup.us_per_spec", "us/spec"},
	{"sim.build.us_per_spec", "us/spec"},
	{"sim.run.us_per_spec", "us/spec"},
	{"sim.run.ns_per_access", "ns/access"},
	{"workloads.validate.us_per_spec", "us/spec"},
	{"sim.invariants.us_per_spec", "us/spec"},
	{"sim.release.us_per_spec", "us/spec"},
	{"sim.arena.warm_ratio", "ratio"},
	{"go.alloc_bytes_per_spec", "B/spec"},
	{"go.allocs_per_spec", "allocs/spec"},
	{"model.accesses", "count"},
	{"model.l1_hit_ratio", "ratio"},
	{"model.l2_hit_ratio", "ratio"},
	{"model.l3_hit_ratio", "ratio"},
	{"model.l4_hit_ratio", "ratio"},
	{"model.mem_ratio", "ratio"},
	{"model.u_local_ratio", "ratio"},
	{"model.invalidations_per_kacc", "1/kacc"},
	{"model.reductions_per_kacc", "1/kacc"},
	{"model.offchip_bytes_per_acc", "B/access"},
	{"coupd.client.send.us_per_batch", "us/batch"},
	{"coupd.client.send.self_us_per_batch", "us/batch"},
	{"net.roundtrip.self_us_per_batch", "us/batch"},
	{"coupd.server.batch.us_per_batch", "us/batch"},
	{"coupd.stage.decode.us_per_batch", "us/batch"},
	{"coupd.stage.apply.us_per_batch", "us/batch"},
	{"coupd.stage.encode.us_per_batch", "us/batch"},
	{"coupd.server.unattributed.us_per_batch", "us/batch"},
	{"coupd.client.read.us_per_read", "us/read"},
	{"coupd.client.read.self_us_per_read", "us/read"},
	{"net.roundtrip.self_us_per_read", "us/read"},
	{"coupd.server.snapshot.us_per_read", "us/read"},
	{"coupd.registry.reduce.us_p50", "us"},
	{"harness.read_lag_tail_ms", "ms"},
	{"coupd.client.attempts_per_send", "ratio"},
	{"coupd.server.rejected", "count"},
	{"coupd.server.replays", "count"},
	{"go.alloc_bytes_per_batch", "B/batch"},
	{"go.allocs_per_batch", "allocs/batch"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one measured number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is everything one workload run produced.
type result struct {
	metrics   []metric
	digest    string // sim workloads: FNV-64a over the cycle's coup.Stats JSON
	attempted int
	failed    int
	problems  []string // failed output checks
}

func (r *result) add(ms ...metric) { r.metrics = append(r.metrics, ms...) }

// problem records a failed output check. Only the first few messages
// are kept; a broken cycle would otherwise repeat one per spec.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) == maxProblems {
		r.problems = append(r.problems, "further failed checks omitted")
	}
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

const maxProblems = 10

// runConfig is what a workload run is told.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // file to write the traced run's spans to, or ""
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) *result
}

func workloadList() []workload {
	return []workload{
		simContended.workload(),
		simFootprint.workload(),
		simSweep.workload(),
		coupdMixed.workload(),
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" (one child process each)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	asJSON := fs.Bool("json", false, "print each metric as a JSON object instead of a text line")
	repeat := fs.Int("repeat", 0, "run every workload this many times in child processes and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -workload <name|all> [-seed n] [-seconds s] [-trace 0|1] [-spans file] [-json] [-repeat n]")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *seed, *seconds, *trace, *name, stdout, stderr)
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have:", *name)
		for _, w := range workloadList() {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, ", all)")
		return 2
	}
	res := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans})
	return report(stdout, stderr, w.name, res, *trace == 1, *asJSON)
}

// report adds the process-wide metrics, prints every metric line, then
// the summary line, and returns the exit code: 1 when any output check
// failed.
func report(stdout, stderr io.Writer, name string, res *result, traced, asJSON bool) int {
	res.add(metric{"peak_rss_mb", peakRSSMB(), "MB"}, metric{"gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count"})
	want := endToEnd
	if traced {
		want = perLayer
	}
	have := map[string]metric{}
	for _, m := range res.metrics {
		have[m.name] = m
	}
	if traced {
		for _, d := range perLayer {
			if _, ok := have[d.name]; !ok {
				have[d.name] = metric{d.name, 0, d.unit} // a layer this workload never calls
				res.add(have[d.name])
			}
		}
	}
	for _, m := range res.metrics {
		printLine(stdout, asJSON, name, m.name, m.value, m.unit)
	}
	if res.digest != "" {
		printLine(stdout, asJSON, name, "sim_digest", res.digest, "fnv64a")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, d := range want {
		m, ok := have[d.name]
		switch {
		case !ok:
			res.problem("metric %s was not measured", d.name)
		case m.unit != d.unit:
			res.problem("metric %s measured in %s, want %s", d.name, m.unit, d.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			res.problem("metric %s is %v", d.name, m.value)
		default:
			summary.Metrics[d.name] = value{m.value, m.unit}
		}
	}
	if res.attempted < 1 {
		res.problem("nothing was attempted")
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "bench: %s: output check failed: %s\n", name, p)
	}
	summary.Correct = len(res.problems) == 0 && res.failed == 0
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !summary.Correct {
		return 1
	}
	return 0
}

// jsonLine is the -json form of one metric line; Value is a number, or
// a string for sim_digest.
type jsonLine struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Value    any    `json:"value"`
	Unit     string `json:"unit"`
}

func printLine(w io.Writer, asJSON bool, workload, name string, value any, unit string) {
	if asJSON {
		b, err := json.Marshal(jsonLine{workload, name, value, unit})
		if err != nil { // NaN or Inf, from a broken run: print it as a string
			b, _ = json.Marshal(jsonLine{workload, name, fmt.Sprint(value), unit})
		}
		fmt.Fprintf(w, "%s\n", b)
		return
	}
	if v, ok := value.(float64); ok {
		value = strconv.FormatFloat(v, 'g', -1, 64)
	}
	fmt.Fprintf(w, "%s %s %v %s\n", workload, name, value, unit)
}

// runAll runs every workload in its own child process, so set-up time
// and peak memory are each workload's own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloadList() {
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// peakRSSMB is the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// goCounters samples the Go runtime's cumulative allocation and GC
// counters; deltas between two samples are a window's cost.
type goCounters struct{ allocBytes, allocs, gcCycles float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return goCounters{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(s[2].Value.Uint64())}
}

func (a goCounters) sub(b goCounters) goCounters {
	return goCounters{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles}
}
