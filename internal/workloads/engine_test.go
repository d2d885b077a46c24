package workloads

import (
	"testing"

	"repro/internal/sim"
)

// TestEngineResumes bounds how often the engine resumes a kernel coroutine
// per simulated access on the repo benchmark's sim-contended and
// sim-footprint specs, and pins two specs' engine counts exactly. Stores,
// commutative updates (the MESI float-add loop included) and loads of
// frozen inputs post without a resume, so only loads of written data —
// refcount's zero-checks, bfs's visited bitmap, pgrank's ranks — and full
// posting queues should cost one.
func TestEngineResumes(t *testing.T) {
	hist := Params{Size: 60000, Bins: 32768}
	pgrank := Params{Scale: 13, EdgeFactor: 12, Iters: 2}
	spmv := Params{Size: 8000, NNZPerCol: 24}
	bfs := Params{Scale: 13}
	for _, tc := range []struct {
		name   string
		cores  int
		p      sim.Protocol
		params Params
		max    float64 // resumes per access
		pin    *sim.EngineCounters
		large  bool // skipped under -short
	}{
		{"refcount", 128, sim.MEUSI, Params{Counters: 16, Size: 100}, 0.35,
			&sim.EngineCounters{Resumes: 6005, Inline: 36, Posted: 12764, Scheduled: 18641}, false},
		{"refcount", 128, sim.MESI, Params{Counters: 16, Size: 100}, 0.35, nil, false},
		{"counter", 64, sim.MEUSI, Params{Size: 300}, 0.35, nil, false},
		{"counter", 64, sim.MESI, Params{Size: 300}, 0.35, nil, false},
		{"hist", 64, sim.MEUSI, hist, 0.07, nil, false},
		{"hist", 64, sim.MESI, hist, 0.07, nil, true},
		{"pgrank", 32, sim.MEUSI, pgrank, 0.10, nil, true},
		{"pgrank", 32, sim.MESI, pgrank, 0.10, nil, true},
		{"spmv", 32, sim.MEUSI, spmv, 0.07, nil, true},
		{"spmv", 32, sim.MESI, spmv, 0.07,
			&sim.EngineCounters{Resumes: 33197, Inline: 1234, Posted: 530904, Scheduled: 744386}, false},
		{"bfs", 32, sim.MEUSI, bfs, 0.45, nil, true},
		{"bfs", 32, sim.MESI, bfs, 0.45, nil, true},
	} {
		if tc.large && testing.Short() {
			continue
		}
		in, _ := ByName(tc.name)
		w, err := in.New(tc.params)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(sim.DefaultConfig(tc.cores, tc.p))
		w.Setup(m)
		st := m.Run(w.Kernel)
		if err := w.Validate(m); err != nil {
			t.Fatalf("%s/%v: %v", tc.name, tc.p, err)
		}
		ec := m.EngineCounters()
		per := float64(ec.Resumes) / float64(st.Accesses)
		t.Logf("%s/%dc/%v: %.3f resumes/access %+v", tc.name, tc.cores, tc.p, per, ec)
		if per > tc.max {
			t.Errorf("%s/%dc/%v: %.3f resumes per access, want <= %.2f", tc.name, tc.cores, tc.p, per, tc.max)
		}
		if tc.pin != nil && ec != *tc.pin {
			t.Errorf("%s/%dc/%v: engine counters %+v, want %+v", tc.name, tc.cores, tc.p, ec, *tc.pin)
		}
	}
}
