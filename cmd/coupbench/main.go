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
//
// Sharded sweeps split one run across processes (or CI jobs):
//
//	coupbench -exp all -shard 1/4 -store res/   # run shard 1 of 4, spill to res/
//	coupbench -exp all -merge res/              # verify coverage, emit tables
//	coupbench -exp all -fanout 4 -store res/    # local coordinator: 4 subprocesses + merge
//
// A shard process runs only its round-robin slice of every grid,
// journalling each completed spec to a per-experiment result store
// (fsync'd JSON, so a killed shard resumes where it left off instead of
// recomputing). -merge loads every shard store, verifies each spec is
// present exactly once (missing or duplicated specs are listed by key),
// and renders tables byte-identical to a single-process run. Stores are
// guarded by a fingerprint of (scale, reps, maxcores), so shards and
// merges across different parameterizations never mix. Experiments with
// wall-clock columns (fig8, figsw, figsvc) cannot shard and are skipped
// in these modes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/stats"
	"repro/pkg/coup"
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
		shard    = flag.String("shard", "", "run only shard k of n ('k/n', 1-based) of every grid, spilling results to -store; no tables are printed")
		store    = flag.String("store", "", "result-store directory for -shard/-fanout")
		merge    = flag.String("merge", "", "merge shard result stores from this directory into tables (verifies exactly-once coverage; runs nothing)")
		fanout   = flag.Int("fanout", 0, "coordinator mode: fan n shard subprocesses out over -store, then merge")
	)
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "coupbench: -parallel must be >= 0")
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*shard != "", *merge != "", *fanout > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "coupbench: -shard, -merge and -fanout are mutually exclusive")
		os.Exit(2)
	}
	if (*shard != "" || *fanout > 0) && *store == "" {
		fmt.Fprintln(os.Stderr, "coupbench: -shard/-fanout need -store DIR")
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

	if *fanout > 0 {
		if err := runFanout(*fanout, *store); err != nil {
			fmt.Fprintf(os.Stderr, "coupbench: fanout: %v\n", err)
			os.Exit(1)
		}
		*merge = *store
	}

	// Job plumbing for the sharded modes. One job serves every
	// experiment; SetNamespace scopes it to each experiment's stores.
	var job *coup.SweepJob
	printTables := true
	switch {
	case *shard != "":
		k, n, err := coup.ParseShard(*shard)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
			os.Exit(2)
		}
		if err := os.MkdirAll(*store, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
			os.Exit(1)
		}
		job, err = coup.NewShardJob(*store, p.Fingerprint(), k, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
			os.Exit(2)
		}
		// A shard's points are unaggregated (foreign shards own the
		// rest), so its tables would be misleading.
		printTables = n == 1
	case *merge != "":
		job = coup.NewMergeJob(*merge, p.Fingerprint())
	}

	failed := false
	for _, e := range toRun {
		if job != nil && !e.Shardable {
			fmt.Fprintf(os.Stderr, "coupbench: skipping %s: wall-clock experiment cannot shard; run it in a single process\n", e.ID)
			continue
		}
		start := time.Now()
		fmt.Printf("### %s — %s\n", e.ID, e.Desc)
		if job != nil {
			if err := job.SetNamespace(e.ID); err != nil {
				fmt.Fprintf(os.Stderr, "coupbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			p.Job = job
		}
		tables, err := runExperiment(e, p)
		if err != nil {
			// Coverage failures list every missing/duplicated spec key; a
			// partial merge must not render partial tables as results.
			fmt.Fprintf(os.Stderr, "coupbench: %s: %v\n", e.ID, err)
			var cov *coup.CoverageError
			if errors.As(err, &cov) {
				failed = true
				continue
			}
			os.Exit(1)
		}
		if printTables {
			for i, t := range tables {
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
		}
		if job != nil {
			// The job report surfaces panicked specs (done-with-error):
			// they are stored and counted like completions, but their
			// stats are zero and must never pass silently.
			rep := job.Report()
			fmt.Printf("[%s]\n", rep)
			if len(rep.Panicked) > 0 || len(rep.Failed) > 0 {
				failed = true
			}
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if job != nil {
		if err := job.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "coupbench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runExperiment runs one experiment, converting the harness's panics —
// including sweep-job failures like *coup.CoverageError, which grid.run
// rethrows as wrapped error values — back into errors the CLI can
// report per experiment.
func runExperiment(e exp.Experiment, p exp.Params) (tables []*stats.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = re
		}
	}()
	return e.Run(p), nil
}

// runFanout is the local coordinator: it re-execs this binary once per
// shard (same flags, plus -shard k/n -store dir), waits for all of them,
// and leaves the stores ready to merge. Shard output goes to stderr;
// stdout stays clean for the merge's tables.
func runFanout(n int, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Strip our coordinator flags; everything else (exp selection, scale,
	// reps, parallel...) passes through so shards enumerate the same grids.
	var base []string
	args := os.Args[1:]
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-fanout" || args[i] == "--fanout" || args[i] == "-store" || args[i] == "--store":
			i++ // skip value
		case strings.HasPrefix(args[i], "-fanout=") || strings.HasPrefix(args[i], "--fanout=") ||
			strings.HasPrefix(args[i], "-store=") || strings.HasPrefix(args[i], "--store="):
		default:
			base = append(base, args[i])
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, n)
	for k := 0; k < n; k++ {
		args := append(append([]string{}, base...),
			"-shard", fmt.Sprintf("%d/%d", k+1, n), "-store", dir)
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("shard %d/%d: %w", k+1, n, err)
		}
		cmds[k] = cmd
	}
	var firstErr error
	for k, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d/%d: %w", k+1, n, err)
		}
	}
	return firstErr
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
