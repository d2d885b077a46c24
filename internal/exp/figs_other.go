package exp

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/pkg/coup"
)

func init() {
	register("fig8", "exhaustive verification cost of 2- and 3-level MESI/MEUSI vs cores and #commutative ops", fig8)
	register("sec55", "sensitivity to reduction unit throughput (256-bit pipelined vs 64-bit unpipelined ALU)", sec55)
	register("traffic", "Sec 5.2 off-chip traffic reduction of COUP over MESI at max cores", trafficExp)
	register("table2", "Table 2/Sec 5.2: per-application op types, sequential run time, commutative-op fraction", table2)
	register("ablation", "Fig 1 & design ablations: MESI vs RMO vs COUP; flat vs hierarchical reductions", ablation)
}

// fig8 reproduces Fig 8: reachable-state counts and verification times for
// two- and three-level MESI and MEUSI as cores and commutative-update types
// grow. The state budget stands in for Murphi's 16 GB memory limit. Unlike
// the simulation grids, fig8 stays serial: each core count's row decides
// whether the next one runs at all (the paper's OOM cutoff), so the cells
// are not independent.
func fig8(p Params) []*stats.Table {
	budget := int(float64(3_000_000) * p.Scale)
	if budget < 20_000 {
		budget = 20_000
	}
	timeout := time.Duration(float64(60*time.Second) * p.Scale)
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	var tables []*stats.Table
	for _, level3 := range []bool{false, true} {
		levels := "two-level"
		if level3 {
			levels = "three-level"
		}
		t := &stats.Table{
			Title:   "Fig 8 (" + levels + "): exhaustive verification cost",
			Headers: []string{"protocol", "ops", "cores", "states", "time", "result"},
		}
		configs := []struct {
			kind proto.Kind
			ops  int
		}{
			{proto.MESI, 0},
			{proto.MEUSI, 2},
			{proto.MEUSI, 8},
			{proto.MEUSI, 20},
		}
		for _, cfg := range configs {
			for cores := 2; cores <= 6; cores++ {
				sy := &proto.System{Kind: cfg.kind, NCores: cores, NOps: cfg.ops, Level3: level3}
				r := check.Verify(sy, budget, timeout)
				status := "verified"
				if r.Err != nil {
					status = "VIOLATION"
				} else if r.Capped {
					status = "out of budget"
				} else if r.TimedOut {
					status = "timeout"
				}
				t.AddRow(cfg.kind.String(), fmt.Sprint(cfg.ops), fmt.Sprint(cores),
					fmt.Sprint(r.States), r.Elapsed.Round(time.Millisecond).String(), status)
				if r.Capped || r.TimedOut {
					break // larger core counts only get worse (paper: OOM)
				}
			}
		}
		t.AddNote("state budget %d (Murphi 16GB analogue), timeout %v per cell", budget, timeout)
		tables = append(tables, t)
	}
	return tables
}

// sec55 reproduces the Sec 5.5 sensitivity study: the default 2-stage
// pipelined 256-bit reduction ALU (1 line / 2 cycles) vs an unpipelined
// 64-bit ALU (1 line / 16 cycles). The paper's worst case is a 0.88%
// slowdown on bfs at 128 cores.
func sec55(p Params) []*stats.Table {
	cores := 64
	if cores > p.MaxCores {
		cores = p.MaxCores
	}
	g := newGrid(p)
	type row struct {
		name       string
		fast, slow *point
	}
	var rows []row
	for _, app := range apps(p) {
		rows = append(rows, row{
			name: app.Name,
			fast: g.add(app.W, cores, "MEUSI"),
			slow: g.add(app.W, cores, "MEUSI", coup.WithReductionALU(16, 16)),
		})
	}
	g.run()
	t := &stats.Table{
		Title:   fmt.Sprintf("Sec 5.5: reduction-unit throughput sensitivity (%d cores, COUP)", cores),
		Headers: []string{"app", "fast ALU (cycles)", "slow ALU (cycles)", "slowdown %"},
	}
	for _, r := range rows {
		t.AddRow(r.name, stats.F(r.fast.Cycles), stats.F(r.slow.Cycles), stats.F((r.slow.Cycles-r.fast.Cycles)/r.fast.Cycles*100))
	}
	t.AddNote("paper: max degradation 0.88%% (bfs at 128 cores)")
	g.note(t)
	return []*stats.Table{t}
}

// trafficExp reproduces the Sec 5.2 traffic numbers: COUP's off-chip
// traffic reduction factors over MESI (paper at 128 cores: hist 20.2x,
// spmv 1.18x, pgrank 4.9x, bfs 1.20x, fluidanimate 1.18x).
func trafficExp(p Params) []*stats.Table {
	cores := p.MaxCores
	g := newGrid(p)
	type row struct {
		name        string
		mesi, meusi *point
	}
	var rows []row
	for _, app := range apps(p) {
		rows = append(rows, row{
			name:  app.Name,
			mesi:  g.add(app.W, cores, "MESI"),
			meusi: g.add(app.W, cores, "MEUSI"),
		})
	}
	g.run()
	t := &stats.Table{
		Title:   fmt.Sprintf("Sec 5.2: off-chip traffic at %d cores", cores),
		Headers: []string{"app", "MESI bytes", "COUP bytes", "reduction x"},
	}
	for _, r := range rows {
		mesi, meusi := r.mesi.Stats.Traffic.OffChipBytes, r.meusi.Stats.Traffic.OffChipBytes
		t.AddRow(r.name, fmt.Sprint(mesi), fmt.Sprint(meusi),
			stats.F(float64(mesi)/float64(meusi)))
	}
	g.note(t)
	return []*stats.Table{t}
}

// table2 reproduces Table 2 plus the Sec 5.2 instruction-mix fractions.
func table2(p Params) []*stats.Table {
	ops := map[string]string{
		"hist": "32b int add", "spmv": "64b FP add", "pgrank": "64b int add",
		"bfs": "64b OR", "fluidanimate": "32b FP add",
	}
	g := newGrid(p)
	type row struct {
		name string
		pt   *point
	}
	var rows []row
	for _, app := range apps(p) {
		rows = append(rows, row{name: app.Name, pt: g.add(app.W, 1, "MEUSI")})
	}
	g.run()
	t := &stats.Table{
		Title:   "Table 2: benchmark characteristics (on synthetic substitute inputs)",
		Headers: []string{"app", "comm ops", "seq run-time (Mcycles)", "comm-op fraction %"},
	}
	for _, r := range rows {
		st := r.pt.Stats
		t.AddRow(r.name, ops[r.name],
			stats.F(float64(st.Cycles)/1e6),
			stats.F(st.CommFraction()*100))
	}
	t.AddNote("paper (full inputs): hist 2720 / spmv 94 / fluidanimate 5930 / pgrank 2850 / bfs 5764 Mcycles")
	t.AddNote("paper comm fractions at 128 cores: hist 1.0%%, spmv 2.4%%, pgrank 4.9%%, bfs 0.40%%, fluidanimate 0.96%%")
	g.note(t)
	return []*stats.Table{t}
}

// ablation covers the Fig 1 comparison and two design ablations: remote
// memory operations vs COUP, and flat vs hierarchical reductions
// (Sec 3.2).
func ablation(p Params) []*stats.Table {
	updates := p.scaleInt(2000)
	mk := workload("refcount", coup.WorkloadParams{Counters: 8, Size: updates, HighCount: true, Seed: 3})
	var counterCores []int
	for _, c := range []int{16, 64} {
		if c <= p.MaxCores {
			counterCores = append(counterCores, c)
		}
	}
	hierCores := p.MaxCores
	hierApps := []struct {
		Name string
		W    wl
	}{
		{"hist", histWorkload(p, 512, "hist")},
		{"bfs", bfsWorkload(p)},
	}

	// Enumerate all three ablations into one grid, then fan out.
	g := newGrid(p)
	type counterRow struct{ mesi, rmo, meusi, musi *point }
	counterRows := make([]counterRow, len(counterCores))
	for i, c := range counterCores {
		counterRows[i] = counterRow{
			mesi:  g.add(mk, c, "MESI"),
			rmo:   g.add(mk, c, "RMO"),
			meusi: g.add(mk, c, "MEUSI"),
			musi:  g.add(mk, c, "MUSI"),
		}
	}
	type hierRow struct{ hier, flat *point }
	hierRows := make([]hierRow, len(hierApps))
	for i, app := range hierApps {
		hierRows[i] = hierRow{
			hier: g.add(app.W, hierCores, "MEUSI"),
			flat: g.add(app.W, hierCores, "MEUSI", coup.WithFlatReductions(true)),
		}
	}
	g.run()

	var tables []*stats.Table

	// Fig 1: a single contended counter under the three schemes.
	counter := &stats.Table{
		Title:   "Fig 1 ablation: contended shared counter (cycles, lower is better)",
		Headers: []string{"cores", "MESI (a)", "RMO (b)", "COUP (c)", "COUP vs MESI", "COUP vs RMO"},
	}
	var counterPts []*point
	for i, c := range counterCores {
		r := counterRows[i]
		counter.AddRow(fmt.Sprint(c), stats.F(r.mesi.Cycles), stats.F(r.rmo.Cycles), stats.F(r.meusi.Cycles),
			stats.F(r.mesi.Cycles/r.meusi.Cycles), stats.F(r.rmo.Cycles/r.meusi.Cycles))
		counterPts = append(counterPts, r.mesi, r.rmo, r.meusi)
	}
	g.note(counter, counterPts...)
	tables = append(tables, counter)

	// E-state ablation: MUSI (Fig 4) vs MEUSI (Fig 6) — what the
	// exclusive-clean optimization buys for update-then-read patterns.
	eTable := &stats.Table{
		Title:   "Ablation: E-state optimization (MUSI vs MEUSI, cycles)",
		Headers: []string{"cores", "MUSI", "MEUSI", "MEUSI gain %"},
	}
	var ePts []*point
	for i, c := range counterCores {
		r := counterRows[i]
		eTable.AddRow(fmt.Sprint(c), stats.F(r.musi.Cycles), stats.F(r.meusi.Cycles),
			stats.F((r.musi.Cycles-r.meusi.Cycles)/r.musi.Cycles*100))
		ePts = append(ePts, r.musi, r.meusi)
	}
	g.note(eTable, ePts...)
	tables = append(tables, eTable)

	// Hierarchical vs flat reductions (Sec 3.2).
	hier := &stats.Table{
		Title:   fmt.Sprintf("Ablation: hierarchical vs flat reductions (%d cores, COUP)", hierCores),
		Headers: []string{"app", "hierarchical (cycles)", "flat (cycles)", "flat slowdown %"},
	}
	var hierPts []*point
	for i, app := range hierApps {
		r := hierRows[i]
		hier.AddRow(app.Name, stats.F(r.hier.Cycles), stats.F(r.flat.Cycles), stats.F((r.flat.Cycles-r.hier.Cycles)/r.hier.Cycles*100))
		hierPts = append(hierPts, r.hier, r.flat)
	}
	g.note(hier, hierPts...)
	tables = append(tables, hier)
	return tables
}
