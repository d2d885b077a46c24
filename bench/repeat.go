package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// repeatRuns runs each workload n times, every run in its own child
// process, rotating the workload order between rounds so no workload
// always follows the same neighbour. It prints each metric's median,
// quartiles and spread, (q3-q1)/median, and fails when a run failed an
// output check or when counts that must repeat exactly (sim_digest,
// model.*) differ between runs.
func repeatRuns(n int, seed uint64, seconds float64, trace int, only string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range workloadList() {
		if only == "" || only == "all" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", only)
		return 2
	}
	type key struct{ workload, metric string }
	var order []key
	values := map[key][]float64{}
	units := map[key]string{}
	texts := map[key]map[string]bool{}
	code := 0
	for round := 0; round < n; round++ {
		for j := range names {
			name := names[(round+j)%len(names)]
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-json")
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", name, round+1, err)
				code = 1
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				var l struct {
					jsonLine
					Failed *int `json:"failed"`
				}
				if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
					continue
				}
				if l.Failed != nil && *l.Failed > 0 {
					fmt.Fprintf(stderr, "bench: %s run %d: %d failed operations\n", name, round+1, *l.Failed)
					code = 1
				}
				if l.Metric == "" {
					continue
				}
				k := key{l.Workload, l.Metric}
				if _, seen := units[k]; !seen {
					order = append(order, k)
					units[k] = l.Unit
				}
				switch v := l.Value.(type) {
				case float64:
					values[k] = append(values[k], v)
				case string:
					if texts[k] == nil {
						texts[k] = map[string]bool{}
					}
					texts[k][v] = true
				}
			}
		}
	}
	for _, k := range order {
		if len(texts[k]) > 1 {
			fmt.Fprintf(stderr, "bench: %s %s differs between runs: %v\n", k.workload, k.metric, texts[k])
			code = 1
		}
		if strings.HasPrefix(k.metric, "model.") && !allEqual(values[k]) {
			fmt.Fprintf(stderr, "bench: %s %s differs between runs: %v\n", k.workload, k.metric, values[k])
			code = 1
		}
	}

	fmt.Fprintf(stdout, "# %s, %d CPUs, GOMAXPROCS %d, %s; %d runs per workload, seed %d, %gs windows\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), n, seed, seconds)
	fmt.Fprintln(stdout, "# workload metric median q1 q3 spread unit runs")
	for _, k := range order {
		if vs := values[k]; len(vs) > 0 {
			med, q1, q3 := spreadOf(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "%s %s %s %s %s %.4f %s %d\n", k.workload, k.metric,
				fmtFloat(med), fmtFloat(q1), fmtFloat(q3), spread, units[k], len(vs))
		}
		for t := range texts[k] {
			fmt.Fprintf(stdout, "%s %s %s - - - %s %d\n", k.workload, k.metric, t, units[k], n)
		}
	}
	return code
}

// spreadOf returns the median and the quartiles of vs.
func spreadOf(vs []float64) (med, q1, q3 float64) {
	if len(vs) < 2 {
		return vs[0], vs[0], vs[0]
	}
	q1, med, q3 = quartiles(vs)
	return med, q1, q3
}

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// cpuModel is the host CPU's model name, from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
