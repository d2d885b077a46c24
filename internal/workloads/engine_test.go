package workloads

import (
	"testing"

	"repro/internal/sim"
)

// TestEngineResumes bounds how often the engine resumes a kernel coroutine
// per simulated access on the repo benchmark's contended specs and its
// histogram, and pins one spec's engine counts exactly. Stores and
// commutative updates post without a resume, so only the ops that return
// a value — refcount's zero-check loads, the histogram's input loads —
// should cost one.
func TestEngineResumes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cores  int
		p      sim.Protocol
		params Params
		max    float64 // resumes per access
		pin    *sim.EngineCounters
	}{
		{"refcount", 128, sim.MEUSI, Params{Counters: 16, Size: 100}, 0.35,
			&sim.EngineCounters{Resumes: 6005, Inline: 36, Posted: 12764, Scheduled: 18641}},
		{"refcount", 128, sim.MESI, Params{Counters: 16, Size: 100}, 0.35, nil},
		{"counter", 64, sim.MEUSI, Params{Size: 300}, 0.35, nil},
		{"counter", 64, sim.MESI, Params{Size: 300}, 0.35, nil},
		{"hist", 64, sim.MEUSI, Params{Size: 60000, Bins: 32768}, 0.21, nil},
	} {
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
