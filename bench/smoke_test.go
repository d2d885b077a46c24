package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/pkg/coup"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	ws := workloadList()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", c.kind, len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", c.kind, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range []simWorkload{simContended, simFootprint, simSweep} {
		if seed1Digests[w.name] == "" {
			t.Errorf("no seed-1 sim_digest recorded for %s", w.name)
		}
	}
}

// small shrinks a simulator workload's inputs so a smoke run set-up
// takes milliseconds. Its digests differ from the full-size ones.
func small(w simWorkload) simWorkload {
	w.cycle = append([]specDef(nil), w.cycle...)
	for i := range w.cycle {
		p := &w.cycle[i].params
		if p.Size > 2000 {
			p.Size /= 20
		}
		p.Scale = min(p.Scale, 10)
	}
	return w
}

// Every workload, untraced and traced, prints every metric
// BENCHMARK.json names, with its unit, in its lines and in the summary.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range []workload{
		small(simContended).workload(),
		small(simFootprint).workload(),
		small(simSweep).workload(),
		coupdMixed.workload(),
	} {
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			// Seed 2: the seed-1 digests belong to the full-size inputs.
			res := w.run(runConfig{seed: 2, seconds: 0.5, trace: traced})
			var out, errs bytes.Buffer
			if code := report(&out, &errs, w.name, res, traced, false); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.name, traced, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			units := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.name {
					t.Fatalf("%s: malformed line %q", w.name, l)
				}
				units[f[1]] = f[3]
			}
			var summary struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: summary line: %v", w.name, err)
			}
			if !summary.Correct || summary.Attempted < 1 || len(summary.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: summary %s", w.name, traced, lines[len(lines)-1])
			}
			for _, m := range want {
				if units[m.Name] != m.Unit || summary.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s traced=%v: %s printed in %q, summary %q, want %q", w.name, traced, m.Name, units[m.Name], summary.Metrics[m.Name].Unit, m.Unit)
				}
			}
		}
	}
}

func TestDigestStableOnTwoSpecs(t *testing.T) {
	w := simWorkload{name: "two", parallelism: 1, headline: "simops_per_s", cycle: []specDef{
		{workload: "counter", cores: 4, protocol: "MEUSI", params: coup.WorkloadParams{Size: 50}},
		{workload: "hist", cores: 4, protocol: "MESI", params: coup.WorkloadParams{Size: 500, Bins: 64}},
	}}
	a := w.run(runConfig{seed: 5, seconds: 0.05})
	b := w.run(runConfig{seed: 5, seconds: 0.05, trace: true})
	c := w.run(runConfig{seed: 6, seconds: 0.05})
	for _, r := range []*result{a, b, c} {
		if len(r.problems) > 0 || r.failed > 0 {
			t.Fatalf("run failed: %v", r.problems)
		}
	}
	if a.digest == "" || a.digest != b.digest {
		t.Fatalf("digest %q untraced, %q traced; want equal", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 5 and 6 gave the same digest %s", a.digest)
	}
}
