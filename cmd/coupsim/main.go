// Command coupsim runs one workload on one simulated machine configuration
// and prints the run's cycle count, AMAT breakdown, protocol events and
// traffic — the quickest way to poke at the simulator. Workloads and
// protocols are resolved by name (case-insensitively) through pkg/coup:
// any of the five protocols, and any registered workload — built-in or
// not.
//
// Usage:
//
//	coupsim -workload hist -protocol meusi -cores 64 -bins 512
//	coupsim -workload bfs -protocol mesi -cores 128
//	coupsim -workload hist -reps 8 -parallel 4   # mean ± CI95 over 8 seeds
//	coupsim -list            # enumerate protocols and workloads
//	coupsim -workload spmv -json
//
// With -reps N > 1 the same configuration runs under machine seeds
// seed..seed+N-1 (fanned out through coup.Sweep; -parallel bounds the
// worker pool) and the report is the per-field mean plus a 95% confidence
// interval on the cycle count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/pkg/coup"
)

func main() {
	var (
		name     = flag.String("workload", "hist", "registered workload name (see -list)")
		protocol = flag.String("protocol", "MEUSI", "protocol name (see -list)")
		cores    = flag.Int("cores", 64, "simulated cores")
		size     = flag.Int("size", 0, "workload size knob (0 = workload default; see -list for meaning)")
		bins     = flag.Int("bins", 0, "histogram bins (hist family; 0 = default)")
		seed     = flag.Uint64("seed", 1, "machine seed (first seed when -reps > 1)")
		wseed    = flag.Uint64("wseed", 0, "workload input seed (0 = workload default)")
		reps     = flag.Int("reps", 1, "seeded repetitions (mean ± CI95 when > 1)")
		parallel = flag.Int("parallel", 0, "concurrent repetitions (0 = GOMAXPROCS); never changes results")
		asJSON   = flag.Bool("json", false, "emit stats as JSON")
		list     = flag.Bool("list", false, "list protocols and registered workloads, then exit")
	)
	flag.StringVar(protocol, "proto", *protocol, "alias for -protocol")
	flag.Parse()

	if *list {
		fmt.Println("protocols:")
		for _, p := range coup.Protocols() {
			fmt.Printf("  %-10s %s\n", p.String(), p.Description())
		}
		fmt.Println("workloads:")
		for _, w := range coup.Workloads() {
			fmt.Printf("  %-18s %s\n", w.Name, w.Description)
		}
		return
	}
	if *reps < 1 || *parallel < 0 {
		fmt.Fprintln(os.Stderr, "coupsim: -reps must be >= 1 and -parallel >= 0")
		os.Exit(2)
	}

	specs := make([]coup.RunSpec, *reps)
	for r := range specs {
		specs[r] = coup.RunSpec{
			Workload: *name,
			Options: []coup.Option{
				coup.WithCores(*cores),
				coup.WithProtocol(*protocol),
				coup.WithSeed(*seed + uint64(r)),
				coup.WithWorkloadParams(coup.WorkloadParams{Size: *size, Bins: *bins, Seed: *wseed}),
			},
		}
	}
	var sopts []coup.SweepOption
	if *parallel > 0 {
		sopts = append(sopts, coup.WithParallelism(*parallel))
	}
	results, err := coup.Sweep(specs, sopts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coupsim: %v\n", err)
		os.Exit(2)
	}
	runs := make([]coup.Stats, len(results))
	for i, res := range results {
		if res.Err != nil {
			fail(res.Err)
		}
		runs[i] = res.Stats
	}

	if *reps == 1 {
		st := runs[0]
		if *asJSON {
			blob, err := st.JSON()
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s\n", blob)
			return
		}
		fmt.Println(st.String())
		return
	}

	mean := coup.MeanStats(runs...)
	ci := coup.CyclesCI95(runs...)
	if *asJSON {
		blob, err := json.MarshalIndent(struct {
			Reps       int        `json:"reps"`
			CI95Cycles float64    `json:"ci95_cycles"`
			Mean       coup.Stats `json:"mean"`
		}{Reps: *reps, CI95Cycles: ci, Mean: mean}, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", blob)
		return
	}
	fmt.Printf("mean of %d reps (seeds %d..%d), cycles ±CI95 = %.1f:\n",
		*reps, *seed, *seed+uint64(*reps)-1, ci)
	fmt.Println(mean.String())
}

// fail reports a run error with the documented exit codes: 2 for usage
// errors (unknown names, bad options), 1 for simulation/validation
// failures.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "coupsim: %v\n", err)
	if errors.Is(err, coup.ErrUnknownWorkload) || errors.Is(err, coup.ErrUnknownProtocol) ||
		errors.Is(err, coup.ErrInvalidOption) || errors.Is(err, coup.ErrConflictingOptions) {
		os.Exit(2) // usage error
	}
	os.Exit(1) // simulation/validation failure
}
