package main

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineLoadL1         	12345678	        20.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineThroughput     	   60000	      5000 ns/op	         0.2000 resumes/simop	   4000000 simops/s	      15 B/op	       0 allocs/op
PASS
`

func parse(t *testing.T, s string) Doc {
	t.Helper()
	doc, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseBench(t *testing.T) {
	doc := parse(t, benchOutput)
	if doc.Context["cpu"] != "Intel(R) Xeon(R) Processor @ 2.10GHz" || doc.Context["goos"] != "linux" {
		t.Errorf("context = %v", doc.Context)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(doc.Results))
	}
	r := doc.Results[1]
	if r.Name != "BenchmarkEngineThroughput" || r.Iterations != 60000 {
		t.Errorf("result = %+v", r)
	}
	if r.Metrics["ns/op"] != 5000 || r.Metrics["simops/s"] != 4000000 || r.Metrics["allocs/op"] != 0 || r.Metrics["resumes/simop"] != 0.2 {
		t.Errorf("metrics = %v", r.Metrics)
	}
}

// regressions reports the (name, metric) pairs flagged by compare.
func regressions(vs []verdict) map[string]bool {
	out := map[string]bool{}
	for _, v := range vs {
		if v.regressed {
			out[v.name+" "+v.metric] = true
		}
	}
	return out
}

func TestCompareSameCPU(t *testing.T) {
	baseline := parse(t, benchOutput)
	// 30% slower ns/op, 30% lower throughput, allocs up by 50.
	freshDoc := parse(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(benchOutput,
		"20.10 ns/op", "26.50 ns/op"),
		"4000000 simops/s", "2700000 simops/s"),
		"0 allocs/op", "50 allocs/op"))
	got := regressions(compare(baseline, freshDoc, 0.20))
	for _, want := range []string{
		"BenchmarkEngineLoadL1 ns/op",
		"BenchmarkEngineThroughput simops/s",
		"BenchmarkEngineLoadL1 allocs/op",
	} {
		if !got[want] {
			t.Errorf("missing regression %q (got %v)", want, got)
		}
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	baseline := parse(t, benchOutput)
	// 10% slower: inside the 20% threshold. allocs/op 0 -> 3 and
	// resumes/simop 0.2 -> 0.25: inside threshold plus slack.
	fresh := parse(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(benchOutput,
		"20.10 ns/op", "22.00 ns/op"),
		"       0 allocs/op", "       3 allocs/op"),
		"0.2000 resumes/simop", "0.2500 resumes/simop"))
	if got := regressions(compare(baseline, fresh, 0.20)); len(got) != 0 {
		t.Errorf("unexpected regressions: %v", got)
	}
}

func TestCompareCrossCPUGatesOnlyMachineIndependent(t *testing.T) {
	baseline := parse(t, benchOutput)
	// Different CPU: wall-clock metrics 3x worse must be SKIPPED, but an
	// allocs/op explosion and a coroutine switch brought back per
	// simulated op must still fail.
	fresh := parse(t, strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(strings.ReplaceAll(benchOutput,
		"Intel(R) Xeon(R) Processor @ 2.10GHz", "AMD EPYC 7B13"),
		"20.10 ns/op", "60.00 ns/op"),
		"       0 allocs/op", "     999 allocs/op"),
		"0.2000 resumes/simop", "1.0000 resumes/simop"))
	vs := compare(baseline, fresh, 0.20)
	got := regressions(vs)
	if got["BenchmarkEngineLoadL1 ns/op"] || got["BenchmarkEngineThroughput simops/s"] {
		t.Errorf("wall-clock metrics gated across different CPUs: %v", got)
	}
	if !got["BenchmarkEngineLoadL1 allocs/op"] {
		t.Errorf("allocs/op not gated across CPUs: %v", got)
	}
	if !got["BenchmarkEngineThroughput resumes/simop"] {
		t.Errorf("resumes/simop not gated across CPUs: %v", got)
	}
	skips := 0
	for _, v := range vs {
		if v.skipped != "" {
			skips++
		}
	}
	if skips == 0 {
		t.Error("cross-CPU wall-clock comparisons must be reported as skipped")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	baseline := parse(t, benchOutput)
	fresh := parse(t, strings.ReplaceAll(benchOutput, "BenchmarkEngineThroughput", "BenchmarkRenamed"))
	vs := compare(baseline, fresh, 0.20)
	if got := regressions(vs); !got["BenchmarkEngineThroughput -"] {
		t.Errorf("tracked benchmark missing from fresh run must fail the gate, got %v", got)
	}
	var sb strings.Builder
	if !report(&sb, vs, 0.20) {
		t.Error("report must flag the missing benchmark as a failure")
	}
	if !strings.Contains(sb.String(), "FAIL BenchmarkEngineThroughput") {
		t.Errorf("report output:\n%s", sb.String())
	}
}

// TestProcSuffixStripped pins the cross-machine name contract: go test
// appends "-<GOMAXPROCS>" on multi-core hosts and nothing on 1-core
// hosts; both must land under one name or the gate silently skips
// everything (the bug this test guards against).
func TestProcSuffixStripped(t *testing.T) {
	multi := strings.ReplaceAll(strings.ReplaceAll(benchOutput,
		"BenchmarkEngineLoadL1    ", "BenchmarkEngineLoadL1-16 "),
		"BenchmarkEngineThroughput    ", "BenchmarkEngineThroughput-16 ")
	doc := parse(t, multi)
	if doc.Results[0].Name != "BenchmarkEngineLoadL1" || doc.Results[1].Name != "BenchmarkEngineThroughput" {
		t.Fatalf("suffixes not stripped: %q, %q", doc.Results[0].Name, doc.Results[1].Name)
	}
	// A suffixed fresh run against an unsuffixed baseline must compare,
	// not skip.
	baseline := parse(t, benchOutput)
	vs := compare(baseline, doc, 0.20)
	for _, v := range vs {
		if v.skipped != "" {
			t.Errorf("unexpected skip after suffix strip: %+v", v)
		}
	}
	for in, want := range map[string]string{
		"BenchmarkFoo-16":    "BenchmarkFoo",
		"BenchmarkFoo":       "BenchmarkFoo",
		"BenchmarkFoo/sub-8": "BenchmarkFoo/sub",
		"BenchmarkFoo/n=8":   "BenchmarkFoo/n=8",
		"BenchmarkFoo-x8":    "BenchmarkFoo-x8",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReportVerdicts(t *testing.T) {
	var sb strings.Builder
	bad := report(&sb, []verdict{
		{name: "BenchmarkA", metric: "ns/op", old: 10, new: 20, delta: 1.0, regressed: true},
		{name: "BenchmarkB", metric: "ns/op", old: 10, new: 10},
		{name: "BenchmarkC", metric: "ns/op", skipped: "different cpu"},
	}, 0.2)
	if !bad {
		t.Error("report must flag regressions")
	}
	out := sb.String()
	for _, want := range []string{"FAIL BenchmarkA", "ok   BenchmarkB", "SKIP BenchmarkC"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestMachineIndependentMetrics lists the metrics the gate checks on every
// runner, whatever CPU recorded the baseline.
func TestMachineIndependentMetrics(t *testing.T) {
	for metric, want := range map[string]bool{
		"allocs/op":     true,
		"B/op":          true,
		"resumes/simop": true,
		"ns/op":         false,
		"simops/s":      false,
		"specs/s":       false,
	} {
		if got := machineIndependent(metric); got != want {
			t.Errorf("machineIndependent(%q) = %v, want %v", metric, got, want)
		}
	}
}
