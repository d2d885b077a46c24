package exp

import (
	"fmt"
	"net/http/httptest"
	"runtime"

	"repro/internal/stats"
	"repro/internal/swbench"
	"repro/pkg/coupd"
	"repro/pkg/obs"
)

func init() {
	register("figsvc",
		"coupd service closed loop: in-process pkg/commute next to batched-HTTP coupd on the same Zipf traffic, plus the server's own reduce-latency telemetry",
		figsvc)
}

// figsvcBatch is the client-side batch size: the network U-state buffer
// depth. 256 records amortizes one HTTP round trip over 256 updates.
const figsvcBatch = 256

// figsvc extends the figsw cross-validation one layer up the stack: the
// same Zipf-skewed histogram and contended-counter streams that figsw
// runs in-process are driven through a coupd server over HTTP with
// client-side batching, closing the loop on ROADMAP's "U-state made
// internet-facing" direction. The in-process column is the same
// pkg/commute fast path; the service column adds JSON encode, one HTTP
// round trip per batch, server decode, and the fan-in — so the ratio
// prices the network boundary, and the batch size is the lever that
// amortizes it (the wire image of the paper's per-line U buffering).
// Every service run is equivalence-checked: the server-side reduction
// must match the client-side applied-op count exactly.
func figsvc(p Params) []*stats.Table {
	srv, err := coupd.New()
	if err != nil {
		panic(fmt.Sprintf("exp: figsvc: %v", err))
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sweep := p.coreSweep()
	ops := p.scaleInt(100_000)
	reps := p.Reps
	if reps < 1 {
		reps = 1
	}
	var worstCI float64
	measure := func(kind swbench.Kind, mk swbench.DriverMaker, threads int) (ns, ups float64) {
		c := swbench.Config{
			Kind: kind, Impl: swbench.ImplCommute, Threads: threads, Ops: ops,
			Cells: 8, Bins: figswBins, ZipfS: 1.07, Seed: 1,
			NewDriver: mk,
		}
		results, mean, ci, err := swbench.Measure(c, reps)
		if err != nil {
			panic(fmt.Sprintf("exp: figsvc: %v", err))
		}
		if mean > 0 && ci/mean > worstCI {
			worstCI = ci / mean
		}
		var mops float64
		for _, r := range results {
			mops += r.MOpsPerSec
		}
		return mean, mops / float64(len(results)) * 1e6
	}

	mkTable := func(title string, kind swbench.Kind) *stats.Table {
		t := &stats.Table{
			Title: title,
			Headers: []string{"workers",
				"in-proc ns/op", "coupd ns/op", "coupd updates/s", "svc/in-proc"},
		}
		for _, th := range sweep {
			inprocNs, _ := measure(kind, nil, th)
			svcNs, svcUps := measure(kind, swbench.HTTPDriver(ts.URL, figsvcBatch, nil), th)
			ratio := 0.0
			if inprocNs > 0 {
				ratio = svcNs / inprocNs
			}
			t.AddRow(fmt.Sprint(th),
				stats.F(inprocNs), stats.F(svcNs), stats.F(svcUps), stats.F(ratio)+"x")
		}
		t.AddNote("batch=%d updates per POST /v1/batch; %d updates/worker, Zipf s=1.07, GOMAXPROCS=%d; every service run equivalence-checked against the server-side reduction",
			figsvcBatch, ops, runtime.GOMAXPROCS(0))
		if reps > 1 {
			t.AddNote("cells are means of %d seeded reps; worst-case ±CI95 is %.1f%% of the mean ns/op", reps, worstCI*100)
		}
		return t
	}

	tables := []*stats.Table{
		mkTable(fmt.Sprintf("Fig SVC-a: shared histogram (%d bins) — in-process pkg/commute vs coupd over HTTP", figswBins), swbench.KindHist),
		mkTable("Fig SVC-b: contended counters (8 cells) — in-process vs coupd over HTTP", swbench.KindCounter),
	}

	// Dogfood column: the server's own telemetry, kept in pkg/commute
	// structures, after absorbing the load above.
	m := srv.Metrics()
	var reduce obs.HistSnapshot
	m.Histogram("coupd_reduce_ns", "", 0).Snapshot(&reduce)
	t := &stats.Table{
		Title:   "Fig SVC-c: coupd self-telemetry after the load (served from its own commute structures)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("batches accepted", fmt.Sprint(m.Counter("coupd_batches_total", "").Value()))
	t.AddRow("updates applied", fmt.Sprint(m.Counter("coupd_updates_total", "").Value()))
	t.AddRow("batches rejected (429)", fmt.Sprint(m.Counter("coupd_rejected_total", "").Value()))
	t.AddRow("snapshot requests", fmt.Sprint(m.Counter("coupd_snapshots_total", "").Value()))
	t.AddRow("reduce ns min/mean/max", fmt.Sprintf("%d / %s / %d", reduce.Min, stats.F(reduce.Mean()), reduce.Max))
	t.AddRow("structures", fmt.Sprint(m.Gauge("coupd_structures", "", nil).Value()))
	return append(tables, t)
}
