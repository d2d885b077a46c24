// Command benchjson converts `go test -bench` output on stdin into a JSON
// document, so CI can archive benchmark results (BENCH_sim.json) and the
// perf trajectory of the simulator accumulates per PR — and, with
// -compare, gates regressions against a committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkEngine ./internal/sim | benchjson -o BENCH_sim.json
//	go test -run '^$' -bench ... ./... | benchjson -compare BENCH_baseline.json -threshold 0.20
//
// Every benchmark line becomes one record carrying the iteration count and
// all reported metrics (ns/op, simops/s, B/op, allocs/op, ...). Context
// lines (goos, goarch, pkg, cpu) are captured as metadata.
//
// # Compare mode
//
// -compare old.json checks the fresh results against a baseline document
// and exits non-zero when any tracked benchmark regressed by more than
// -threshold (relative, default 0.20). Two kinds of metrics are gated
// differently:
//
//   - Machine-independent metrics (allocs/op, B/op, and the simulator's
//     resumes/simop, its kernel coroutine switches per simulated op) are
//     always gated: they are deterministic properties of the code,
//     identical on a laptop and a CI runner, so a committed baseline stays
//     valid everywhere. A small absolute slack absorbs runtime jitter and
//     the per-run constants that b.N does not amortize.
//   - Wall-clock metrics (ns/op, and throughput metrics like simops/s or
//     specs/s, where lower is better inverted) are gated only when the
//     baseline was recorded on the same CPU model (the "cpu" context
//     line): cross-machine nanoseconds are noise, not signal. Skipped
//     comparisons are reported, never silently dropped.
//
// Refresh the committed baseline with the one-command pipe in README
// "Simulator performance" (the canonical tracked set piped into
// `benchjson -o BENCH_baseline.json`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the output document.
type Doc struct {
	Context map[string]string `json:"context,omitempty"`
	Results []Result          `json:"results"`
}

// parseBench reads `go test -bench` output into a Doc.
func parseBench(r io.Reader) (Doc, error) {
	doc := Doc{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Context[key] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // not a result line (e.g. "BenchmarkFoo ... FAIL")
		}
		r := Result{Name: stripProcSuffix(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		doc.Results = append(doc.Results, r)
	}
	return doc, sc.Err()
}

// stripProcSuffix drops go test's "-<GOMAXPROCS>" benchmark-name suffix,
// so results from hosts with different core counts compare under one
// name. On a 1-core host go test emits no suffix at all — without the
// strip, a baseline from one machine would never match another's run and
// the whole gate would skip itself silently.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// verdict is one metric comparison.
type verdict struct {
	name, metric string
	old, new     float64
	delta        float64 // relative change, regression-positive
	regressed    bool
	skipped      string // non-empty: why this metric was not gated
}

// higherIsBetter reports whether a metric is a rate (throughput) rather
// than a cost.
func higherIsBetter(metric string) bool {
	return strings.HasSuffix(metric, "/s")
}

// machineIndependent reports whether a metric is a deterministic property
// of the code rather than of the host (and so is gated even when the
// baseline comes from a different CPU).
func machineIndependent(metric string) bool {
	return metric == "allocs/op" || metric == "B/op" || metric == "resumes/simop"
}

// absSlack absorbs runtime jitter in machine-independent metrics: the
// allocator and GC may add a few objects (or a few dozen bytes) per op
// independent of the code under test, and a run's fixed resumes (one per
// kernel start) weigh more at the small b.N of a short run.
func absSlack(metric string) float64 {
	switch metric {
	case "allocs/op":
		return 4
	case "B/op":
		return 512
	case "resumes/simop":
		return 0.01
	}
	return 0
}

// compare gates fresh results against a baseline. Benchmarks present only
// on one side are ignored (the baseline names the tracked set); metrics
// are gated per the rules above.
func compare(baseline, fresh Doc, threshold float64) []verdict {
	sameCPU := baseline.Context["cpu"] != "" && baseline.Context["cpu"] == fresh.Context["cpu"]
	freshByName := map[string]Result{}
	for _, r := range fresh.Results {
		freshByName[r.Name] = r
	}
	var out []verdict
	for _, old := range baseline.Results {
		nw, ok := freshByName[old.Name]
		if !ok {
			// A tracked benchmark that stopped reporting is a gate hole
			// (renamed, deleted, or the run filter drifted), not a skip:
			// fail so the baseline gets refreshed deliberately.
			out = append(out, verdict{name: old.Name, metric: "-", regressed: true, skipped: "tracked benchmark missing from fresh run"})
			continue
		}
		metrics := make([]string, 0, len(old.Metrics))
		for m := range old.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			ov := old.Metrics[m]
			nv, ok := nw.Metrics[m]
			if !ok {
				out = append(out, verdict{name: old.Name, metric: m, old: ov, skipped: "metric missing from fresh run"})
				continue
			}
			v := verdict{name: old.Name, metric: m, old: ov, new: nv}
			switch {
			case !machineIndependent(m) && !sameCPU:
				v.skipped = "wall-clock metric, baseline from different cpu"
			case higherIsBetter(m):
				if ov > 0 {
					v.delta = (ov - nv) / ov
					v.regressed = nv < ov*(1-threshold)
				}
			default:
				base := ov*(1+threshold) + absSlack(m)
				if ov > 0 {
					v.delta = (nv - ov) / ov
				} else {
					v.delta = nv
				}
				v.regressed = nv > base
			}
			out = append(out, v)
		}
	}
	return out
}

// report renders the verdicts and returns whether any regressed.
func report(w io.Writer, vs []verdict, threshold float64) bool {
	bad := false
	fmt.Fprintf(w, "benchjson: comparing against baseline (threshold %.0f%%)\n", threshold*100)
	for _, v := range vs {
		switch {
		case v.regressed && v.skipped != "":
			bad = true
			fmt.Fprintf(w, "  FAIL %-60s %-12s (%s)\n", v.name, v.metric, v.skipped)
		case v.skipped != "":
			fmt.Fprintf(w, "  SKIP %-60s %-12s (%s)\n", v.name, v.metric, v.skipped)
		case v.regressed:
			bad = true
			fmt.Fprintf(w, "  FAIL %-60s %-12s %12.2f -> %12.2f (%+.1f%%)\n", v.name, v.metric, v.old, v.new, v.delta*100)
		default:
			fmt.Fprintf(w, "  ok   %-60s %-12s %12.2f -> %12.2f (%+.1f%%)\n", v.name, v.metric, v.old, v.new, v.delta*100)
		}
	}
	return bad
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	out := flag.String("o", "", "output file (default stdout; with -compare, optional archive copy)")
	baselinePath := flag.String("compare", "", "baseline JSON to gate against; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.20, "relative regression threshold for -compare")
	flag.Parse()

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("read: %v", err)
	}
	if len(doc.Results) == 0 {
		fatalf("no benchmark results on stdin")
	}

	data, err := json.MarshalIndent(doc, "", "\t")
	if err != nil {
		fatalf("%v", err)
	}
	data = append(data, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
	case *baselinePath == "":
		os.Stdout.Write(data)
	}

	if *baselinePath == "" {
		return
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	var baseline Doc
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fatalf("baseline %s: %v", *baselinePath, err)
	}
	if report(os.Stdout, compare(baseline, doc, *threshold), *threshold) {
		fatalf("benchmark regression above %.0f%% threshold (refresh the baseline only for intentional trade-offs; see README)", *threshold*100)
	}
}
