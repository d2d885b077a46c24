package exp

import (
	"fmt"

	"repro/internal/stats"
	"repro/pkg/coup"
)

func init() {
	register("fig2", "hist relative performance vs #bins (COUP, MESI atomics, MESI software privatization) at 64 cores", fig2)
	register("fig10", "per-application speedups of COUP and MESI on 1-128 cores", fig10)
	register("fig11", "AMAT breakdown of COUP and MESI at 8/32/128 cores", fig11)
	register("fig12", "hist: COUP vs core- and socket-level privatization, 512 and 16K bins", fig12)
	register("fig13a", "reference counting, immediate dealloc, low count: COUP vs SNZI vs XADD", fig13a)
	register("fig13b", "reference counting, immediate dealloc, high count: COUP vs SNZI vs XADD", fig13b)
	register("fig13c", "reference counting, delayed dealloc: COUP vs Refcache vs updates/epoch", fig13c)
}

// fig2 reproduces Fig 2: all schemes process a fixed input; performance is
// reported relative to COUP at 32 bins (higher is better). The paper's
// shape: privatization wins at few bins, atomics at many bins, COUP beats
// both across the range.
func fig2(p Params) []*stats.Table {
	cores := 64
	if cores > p.MaxCores {
		cores = p.MaxCores
	}
	bins := []int{32, 128, 512, 2048, 8192, 32768}
	g := newGrid(p)
	type row struct{ coup, atom, priv *point }
	rows := make([]row, len(bins))
	for i, b := range bins {
		rows[i] = row{
			coup: g.add(histWorkload(p, b, "hist"), cores, "MEUSI"),
			atom: g.add(histWorkload(p, b, "hist"), cores, "MESI"),
			priv: g.add(histWorkload(p, b, "hist-priv-core"), cores, "MESI"),
		}
	}
	g.run()
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 2: hist relative performance vs bins (%d cores)", cores),
		Headers: []string{"bins", "COUP", "MESI-atomics", "MESI-sw-privatization"},
	}
	base := rows[0].coup.Cycles
	for i, b := range bins {
		r := rows[i]
		t.AddRow(fmt.Sprint(b), stats.F(base/r.coup.Cycles), stats.F(base/r.atom.Cycles), stats.F(base/r.priv.Cycles))
	}
	t.AddNote("performance relative to COUP at 32 bins; higher is better (paper Fig 2)")
	g.note(t)
	return []*stats.Table{t}
}

// fig10 reproduces Fig 10: per-application speedups over the application's
// single-core MESI run.
func fig10(p Params) []*stats.Table {
	g := newGrid(p)
	type cell struct{ mesi, coup *point }
	type series struct {
		name string
		base *point
		rows []cell
	}
	sweep := p.coreSweep()
	var all []series
	for _, app := range apps(p) {
		s := series{name: app.Name, base: g.add(app.W, 1, "MESI")}
		for _, c := range sweep {
			s.rows = append(s.rows, cell{
				mesi: g.add(app.W, c, "MESI"),
				coup: g.add(app.W, c, "MEUSI"),
			})
		}
		all = append(all, s)
	}
	g.run()
	var tables []*stats.Table
	for _, s := range all {
		t := &stats.Table{
			Title:   "Fig 10: " + s.name + " speedup (vs 1-core MESI)",
			Headers: []string{"cores", "MESI", "COUP", "COUP/MESI"},
		}
		base := s.base.Cycles
		pts := []*point{s.base}
		for i, c := range sweep {
			r := s.rows[i]
			t.AddRow(fmt.Sprint(c), stats.F(base/r.mesi.Cycles), stats.F(base/r.coup.Cycles), stats.F(r.mesi.Cycles/r.coup.Cycles))
			pts = append(pts, r.mesi, r.coup)
		}
		g.note(t, pts...)
		tables = append(tables, t)
	}
	return tables
}

// fig11 reproduces Fig 11: the average memory access time decomposition,
// normalized to COUP's AMAT at 8 cores (lower is better).
func fig11(p Params) []*stats.Table {
	sizes := []int{8, 32, 128}
	protos := []string{"MEUSI", "MESI"}
	g := newGrid(p)
	type row struct {
		cores int
		proto string
		pt    *point
	}
	type series struct {
		name string
		rows []row
	}
	var all []series
	for _, app := range apps(p) {
		s := series{name: app.Name}
		for _, c := range sizes {
			if c > p.MaxCores {
				continue
			}
			for _, proto := range protos {
				s.rows = append(s.rows, row{cores: c, proto: proto, pt: g.add(app.W, c, proto)})
			}
		}
		all = append(all, s)
	}
	g.run()
	var tables []*stats.Table
	for _, s := range all {
		t := &stats.Table{
			Title:   "Fig 11: " + s.name + " AMAT breakdown (normalized to COUP @ 8 cores)",
			Headers: []string{"cores", "proto", "total", "L2", "L3", "net", "L4inval", "L4", "mem"},
		}
		var norm float64
		var pts []*point
		for _, r := range s.rows {
			st := r.pt.Stats
			b := st.Breakdown
			if norm == 0 {
				norm = st.AMAT // first row: COUP at the smallest size
			}
			t.AddRow(fmt.Sprint(r.cores), protoName(r.proto),
				stats.F(st.AMAT/norm),
				stats.F(b.L2/norm), stats.F(b.L3/norm), stats.F(b.OffChipNet/norm),
				stats.F(b.L4Inval/norm), stats.F(b.L4/norm), stats.F(b.MainMem/norm))
			pts = append(pts, r.pt)
		}
		g.note(t, pts...)
		tables = append(tables, t)
	}
	return tables
}

func protoName(pr string) string {
	if pr == "MEUSI" {
		return "COUP"
	}
	return pr
}

// fig12 reproduces Fig 12: hist as an explicit reduction variable, COUP vs
// core-level and socket-level privatization, at 512 and 16K bins.
func fig12(p Params) []*stats.Table {
	binSet := []int{512, 16384}
	sweep := p.coreSweep()
	g := newGrid(p)
	type cell struct{ coup, core, sock *point }
	type series struct {
		bins int
		base *point
		rows []cell
	}
	var all []series
	for _, bins := range binSet {
		s := series{bins: bins, base: g.add(histWorkload(p, bins, "hist"), 1, "MEUSI")}
		for _, c := range sweep {
			s.rows = append(s.rows, cell{
				coup: g.add(histWorkload(p, bins, "hist"), c, "MEUSI"),
				core: g.add(histWorkload(p, bins, "hist-priv-core"), c, "MESI"),
				sock: g.add(histWorkload(p, bins, "hist-priv-socket"), c, "MESI"),
			})
		}
		all = append(all, s)
	}
	g.run()
	var tables []*stats.Table
	for _, s := range all {
		t := &stats.Table{
			Title:   fmt.Sprintf("Fig 12: hist privatization comparison, %d bins (speedup vs 1-core COUP)", s.bins),
			Headers: []string{"cores", "COUP", "core-priv", "socket-priv"},
		}
		base := s.base.Cycles
		pts := []*point{s.base}
		for i, c := range sweep {
			r := s.rows[i]
			t.AddRow(fmt.Sprint(c), stats.F(base/r.coup.Cycles), stats.F(base/r.core.Cycles), stats.F(base/r.sock.Cycles))
			pts = append(pts, r.coup, r.core, r.sock)
		}
		g.note(t, pts...)
		tables = append(tables, t)
	}
	return tables
}

func refcountImmediate(p Params, high bool, title string) []*stats.Table {
	// The paper runs 1M updates/thread over 1024 counters; updates must be
	// several times the counter pool so that high-count mode actually
	// accumulates per-thread surpluses (which is what lets SNZI stop
	// propagating to the root).
	updates := p.scaleInt(8192)
	counters := 1024
	wp := coup.WorkloadParams{Counters: counters, Size: updates, HighCount: high, Seed: 21}
	mk := workload("refcount", wp)
	mkSnzi := workload("refcount-snzi", wp)
	sweep := p.coreSweep()
	g := newGrid(p)
	type cell struct{ xadd, coup, snzi *point }
	base := g.add(mk, 1, "MESI")
	rows := make([]cell, len(sweep))
	for i, c := range sweep {
		rows[i] = cell{
			xadd: g.add(mk, c, "MESI"),
			coup: g.add(mk, c, "MEUSI"),
			snzi: g.add(mkSnzi, c, "MESI"),
		}
	}
	g.run()
	t := &stats.Table{
		Title:   title,
		Headers: []string{"cores", "XADD", "COUP", "SNZI"},
	}
	// Each thread performs a fixed number of updates, so the figure's
	// speedup is aggregate throughput relative to one XADD thread.
	for i, c := range sweep {
		fc := float64(c)
		r := rows[i]
		t.AddRow(fmt.Sprint(c), stats.F(fc*base.Cycles/r.xadd.Cycles), stats.F(fc*base.Cycles/r.coup.Cycles), stats.F(fc*base.Cycles/r.snzi.Cycles))
	}
	t.AddNote("throughput speedup vs 1-core XADD; %d counters, %d updates/thread", counters, updates)
	g.note(t)
	return []*stats.Table{t}
}

func fig13a(p Params) []*stats.Table {
	return refcountImmediate(p, false, "Fig 13a: refcount immediate dealloc, low count")
}

func fig13b(p Params) []*stats.Table {
	return refcountImmediate(p, true, "Fig 13b: refcount immediate dealloc, high count")
}

// fig13c reproduces Fig 13c: delayed deallocation, performance (updates per
// kilocycle) as updates/epoch grows.
func fig13c(p Params) []*stats.Table {
	cores := p.MaxCores
	if cores > 128 {
		cores = 128
	}
	counters := p.scaleInt(8192)
	epochs := 2
	g := newGrid(p)
	type row struct {
		upe          int
		coup, refcch *point
	}
	var rows []row
	for _, upe := range []int{10, 50, 100, 300, 1000} {
		upe := p.scaleInt(upe)
		if len(rows) > 0 && rows[len(rows)-1].upe == upe {
			continue // small scales round neighbouring values onto one
		}
		wp := coup.WorkloadParams{Counters: counters, Iters: epochs, UpdatesPerEpoch: upe, Seed: 27}
		rows = append(rows, row{
			upe:    upe,
			coup:   g.add(workload("refcount-delayed", wp), cores, "MEUSI"),
			refcch: g.add(workload("refcount-refcache", wp), cores, "MESI"),
		})
	}
	g.run()
	t := &stats.Table{
		Title:   fmt.Sprintf("Fig 13c: refcount delayed dealloc (%d threads, %d counters)", cores, counters),
		Headers: []string{"updates/epoch", "COUP", "Refcache", "COUP/Refcache"},
	}
	for _, r := range rows {
		work := float64(r.upe * epochs * cores)
		t.AddRow(fmt.Sprint(r.upe), stats.F(work/r.coup.Cycles*1000), stats.F(work/r.refcch.Cycles*1000), stats.F(r.refcch.Cycles/r.coup.Cycles))
	}
	t.AddNote("performance in updates per kilocycle (higher is better); paper reports COUP up to 2.3x over Refcache")
	g.note(t)
	return []*stats.Table{t}
}
