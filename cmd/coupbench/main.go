// Command coupbench regenerates the paper's tables and figures on the
// simulated system. Each experiment id corresponds to one figure/table in
// the evaluation (Sec 5); -list prints every id with a description.
//
// Usage:
//
//	coupbench -exp fig10              # one experiment at full scale
//	coupbench -exp all -scale 0.2     # everything, scaled down 5x
//	coupbench -exp all -quick         # everything at benchmark scale (exp.BenchParams)
//	coupbench -exp all -parallel 8    # fan independent simulations out over 8 workers
//	coupbench -exp all -progress      # live sweep progress on stderr every 2s
//	coupbench -list                   # enumerate experiment ids and descriptions
//	coupbench -exp fig2 -csv results  # also write CSV files
//
// Each experiment enumerates its full data-point grid and evaluates it
// through coup.Sweep; -parallel only bounds the worker pool, so tables are
// byte-identical at any setting. The one exception is fig8, which drives
// the model checker serially and reports measured wall-clock per cell —
// its time column varies between any two runs (states and verdicts don't).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/pkg/obs"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (or 'all')")
		quick    = flag.Bool("quick", false, "start from benchmark-scale parameters (exp.BenchParams: scale 0.05, 32-core cap) instead of the full run; explicit -scale/-maxcores still win")
		scale    = flag.Float64("scale", 0, "input scale factor (1.0 = full; 0 = default for the chosen mode)")
		reps     = flag.Int("reps", 1, "seeded repetitions per data point")
		cores    = flag.Int("maxcores", 0, "cap on simulated core counts (0 = default for the chosen mode)")
		parallel = flag.Int("parallel", 0, "concurrent simulations per experiment (0 = GOMAXPROCS); never changes results")
		csvDir   = flag.String("csv", "", "directory to write CSV outputs into")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		progress = flag.Bool("progress", false, "report live sweep progress (specs done, arena warm-hit rate, worker busy time) on stderr every 2s")
	)
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "coupbench: -parallel must be >= 0")
		os.Exit(2)
	}

	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, line := range exp.Listing() {
			fmt.Printf("  %s\n", line)
		}
		if !*list {
			os.Exit(2)
		}
		return
	}

	p := exp.DefaultParams()
	if *quick {
		p = exp.BenchParams()
	}
	if *scale > 0 {
		p.Scale = *scale
	}
	if *cores > 0 {
		p.MaxCores = *cores
	}
	p.Reps = *reps
	p.Parallel = *parallel
	if *progress {
		p.Progress = obs.NewRegistry()
		stopProgress := startProgress(p.Progress)
		defer stopProgress()
	}

	var toRun []exp.Experiment
	if strings.EqualFold(*expID, "all") {
		toRun = exp.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "coupbench: unknown experiment %q; have:\n  %s\n",
					id, strings.Join(exp.Listing(), "\n  "))
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	for _, e := range toRun {
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Desc)
		for i, t := range e.Run(p) {
			fmt.Println(t.String())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, i)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// startProgress launches the stderr progress reporter over the sweep
// metrics registry and returns a stop func that prints a final summary.
// Reading the counters is a reduce-on-read over the sweep workers'
// private shards, so polling never perturbs the runs it reports on.
func startProgress(reg *obs.Registry) (stop func()) {
	specs := reg.Counter("coup_sweep_specs_total", "")
	busy := reg.Counter("coup_sweep_busy_ns_total", "")
	warm := reg.Counter("coup_sweep_arena_warm_total", "")
	cold := reg.Counter("coup_sweep_arena_cold_total", "")
	line := func(tag string) {
		w, c := warm.Value(), cold.Value()
		rate := 0.0
		if w+c > 0 {
			rate = float64(w) / float64(w+c) * 100
		}
		fmt.Fprintf(os.Stderr, "coupbench %s: %d specs done, arena warm-hit %.0f%% (%d/%d), workers busy %v\n",
			tag, specs.Value(), rate, w, w+c,
			(time.Duration(busy.Value()) * time.Nanosecond).Round(time.Millisecond))
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				line("progress")
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		line("total")
	}
}
