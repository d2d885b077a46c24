package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/pkg/coup"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// specDef is one simulation of a workload's cycle.
type specDef struct {
	workload string
	cores    int
	protocol string
	params   coup.WorkloadParams
}

func (d specDef) String() string { return fmt.Sprintf("%s/%dc/%s", d.workload, d.cores, d.protocol) }

// simWorkload runs a fixed cycle of specs over and over through one
// Sweeper. Every spec starts with empty modelled caches, so each cycle
// repeats the first one's coup.Stats exactly.
type simWorkload struct {
	name        string
	why         string
	parallelism int
	// headline names the throughput ops_per_s reports: "simops_per_s"
	// (simulated accesses per host second) or "specs_per_s".
	headline string
	cycle    []specDef
}

func (w simWorkload) workload() workload { return workload{w.name, w.why, w.run} }

// bothProtocols lists every def under MEUSI and then under MESI.
func bothProtocols(defs ...specDef) []specDef {
	var out []specDef
	for _, p := range []string{"MEUSI", "MESI"} {
		for _, d := range defs {
			d.protocol = p
			out = append(out, d)
		}
	}
	return out
}

var simContended = simWorkload{
	name:        "sim-contended",
	why:         "few hot lines bounce through the L4 directory, so Machine.Run (scheduler, coroutine switches, protocol actions) is nearly all the time",
	parallelism: 1,
	headline:    "simops_per_s",
	cycle: bothProtocols(
		specDef{workload: "refcount", cores: 128, params: coup.WorkloadParams{Counters: 16, Size: 100}},
		specDef{workload: "counter", cores: 64, params: coup.WorkloadParams{Size: 300}},
	),
}

var simFootprint = simWorkload{
	name:        "sim-footprint",
	why:         "working sets far beyond L1/L2 with little sharing stress cache-array probes, eviction, the backing store and input generation",
	parallelism: 1,
	headline:    "simops_per_s",
	cycle: bothProtocols(
		specDef{workload: "hist", cores: 64, params: coup.WorkloadParams{Size: 60000, Bins: 32768}},
		specDef{workload: "pgrank", cores: 32, params: coup.WorkloadParams{Scale: 13, EdgeFactor: 12, Iters: 2}},
		specDef{workload: "spmv", cores: 32, params: coup.WorkloadParams{Size: 8000, NNZPerCol: 24}},
		specDef{workload: "bfs", cores: 32, params: coup.WorkloadParams{Scale: 13}},
	),
}

var simSweep = simWorkload{
	name:        "sim-sweep",
	why:         "a figure grid of tiny simulations: machine build/reset and invariant checks take a fifth of each spec, against under a tenth on the other sim workloads",
	parallelism: 2,
	headline:    "specs_per_s",
	cycle:       bothProtocols(append(tinyGrid(4), tinyGrid(16)...)...),
}

// tinyGrid is one core count's row of the sim-sweep grid.
func tinyGrid(cores int) []specDef {
	return []specDef{
		{workload: "hist", cores: cores, params: coup.WorkloadParams{Size: 1000, Bins: 256}},
		{workload: "hist-priv-core", cores: cores, params: coup.WorkloadParams{Size: 1000, Bins: 256}},
		{workload: "refcount", cores: cores, params: coup.WorkloadParams{Counters: 64, Size: 100}},
		{workload: "refcount-snzi", cores: cores, params: coup.WorkloadParams{Counters: 64, Size: 100}},
		{workload: "counter", cores: cores, params: coup.WorkloadParams{Size: 100}},
		{workload: "refcount-delayed", cores: cores, params: coup.WorkloadParams{Counters: 256, Iters: 2, UpdatesPerEpoch: 30}},
		{workload: "pgrank", cores: cores, params: coup.WorkloadParams{Scale: 8, EdgeFactor: 4, Iters: 1}},
		{workload: "fluid", cores: cores, params: coup.WorkloadParams{Size: 16, Iters: 1}},
	}
}

// seed1Digests are the sim_digest values at -seed 1. A host-only change
// must leave them alone; a change to the model moves them, and the
// same change updates them here.
var seed1Digests = map[string]string{
	"sim-contended": "066a519b00212215",
	"sim-footprint": "da012243044621d2",
	"sim-sweep":     "6b9298694ce495f9",
}

// specSeed derives spec i's workload and machine seed from the run seed
// (splitmix64; never 0, which would select a workload's canonical seed).
func specSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

// runSpecs is the cycle as Sweeper input.
func (w simWorkload) runSpecs(seed uint64) []coup.RunSpec {
	out := make([]coup.RunSpec, len(w.cycle))
	for i, d := range w.cycle {
		s := specSeed(seed, i)
		p := d.params
		p.Seed = s
		out[i] = coup.RunSpec{Workload: d.workload, Options: []coup.Option{
			coup.WithCores(d.cores), coup.WithProtocol(d.protocol), coup.WithSeed(s), coup.WithWorkloadParams(p),
		}}
	}
	return out
}

// digest is the FNV-64a hash of each spec's coup.Stats JSON, in order.
func digest(stats []coup.Stats) string {
	h := fnv.New64a()
	for _, s := range stats {
		b, _ := json.Marshal(s) // coup.Stats holds only numbers and strings
		h.Write(b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (w simWorkload) run(cfg runConfig) *result {
	res := &result{}
	specs := w.runSpecs(cfg.seed)

	// Set-up: the Sweeper and one warm-up cycle, which fills the host
	// arenas and becomes the reference every later cycle must repeat.
	var sw *coup.Sweeper
	var warm []coup.SweepResult
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		sw, warm = nil, nil
		runtime.GC()
		t0 := time.Now()
		s, err := coup.NewSweeper(coup.WithParallelism(w.parallelism))
		if err != nil {
			res.problem("new sweeper: %v", err)
			return res
		}
		sw, warm = s, s.Run(specs)
		setups = append(setups, time.Since(t0).Seconds())
	}
	ref := make([]coup.Stats, len(warm))
	for i, r := range warm {
		ref[i] = r.Stats
		res.attempted++
		if r.Err != nil {
			res.failed++
			res.problem("warm-up spec %d (%s): %v", i, w.cycle[i], r.Err)
		}
	}
	if res.failed > 0 {
		return res
	}
	res.digest = digest(ref)
	if want, ok := seed1Digests[w.name]; ok && cfg.seed == 1 && res.digest != want {
		res.problem("sim_digest %s, want %s (the seed-1 digest in sim.go)", res.digest, want)
	}
	res.add(w.modelMetrics(ref)...)

	if cfg.trace {
		w.traced(cfg, sw, specs, ref, res)
		return res
	}
	times := w.measure(sw, specs, ref, cfg.seconds, res)
	res.add(metric{"setup_s", median(setups), "s"})
	res.add(w.throughput(times, ref)...)
	res.add(summarize(times).metrics("cycle")...)
	res.add(metric{"failed_ratio", float64(res.failed) / float64(res.attempted), "ratio"})
	return res
}

// measure runs whole cycles through sw until seconds have passed and
// returns each cycle's wall time.
func (w simWorkload) measure(sw *coup.Sweeper, specs []coup.RunSpec, ref []coup.Stats, seconds float64, res *result) []time.Duration {
	var times []time.Duration
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		out := sw.Run(specs)
		times = append(times, time.Since(t0))
		for i, r := range out {
			w.check(i, r.Stats, r.Err, ref, res)
		}
	}
	return times
}

// check counts one spec's outcome and compares its stats with the
// warm-up cycle's.
func (w simWorkload) check(i int, st coup.Stats, err error, ref []coup.Stats, res *result) {
	res.attempted++
	switch {
	case err != nil:
		res.failed++
		res.problem("spec %d (%s): %v", i, w.cycle[i], err)
	case st != ref[i]:
		res.problem("spec %d (%s): stats differ from the warm-up cycle's", i, w.cycle[i])
	}
}

// throughput reports the cycle rate at the fastest decile of cycle
// times, as simulated accesses and as specs per host second.
func (w simWorkload) throughput(times []time.Duration, ref []coup.Stats) []metric {
	cycle := fastDecile(secondsOf(times))
	var acc uint64
	for _, s := range ref {
		acc += s.Accesses
	}
	simops := float64(acc) / cycle
	specs := float64(len(ref)) / cycle
	ops := simops
	if w.headline == "specs_per_s" {
		ops = specs
	}
	return []metric{
		{"ops_per_s", ops, "ops/s"},
		{"simops_per_s", simops, "simops/s"},
		{"specs_per_s", specs, "specs/s"},
	}
}

// modelMetrics summarizes the modelled machine over one cycle. They
// count simulated events, so they repeat exactly for a seed and must not
// move for a change that only makes the host faster.
func (w simWorkload) modelMetrics(ref []coup.Stats) []metric {
	var t coup.Stats
	for _, s := range ref {
		t.Accesses += s.Accesses
		t.L1Hits += s.L1Hits
		t.L2Hits += s.L2Hits
		t.L3Hits += s.L3Hits
		t.L4Hits += s.L4Hits
		t.MemAccesses += s.MemAccesses
		t.ULocalHits += s.ULocalHits
		t.Invalidations += s.Invalidations
		t.FullReductions += s.FullReductions
		t.PartialReductions += s.PartialReductions
		t.Traffic.OffChipBytes += s.Traffic.OffChipBytes
	}
	acc := float64(t.Accesses)
	return []metric{
		{"model.accesses", acc, "count"},
		{"model.l1_hit_ratio", float64(t.L1Hits) / acc, "ratio"},
		{"model.l2_hit_ratio", float64(t.L2Hits) / acc, "ratio"},
		{"model.l3_hit_ratio", float64(t.L3Hits) / acc, "ratio"},
		{"model.l4_hit_ratio", float64(t.L4Hits) / acc, "ratio"},
		{"model.mem_ratio", float64(t.MemAccesses) / acc, "ratio"},
		{"model.u_local_ratio", float64(t.ULocalHits) / acc, "ratio"},
		{"model.invalidations_per_kacc", float64(t.Invalidations) * 1000 / acc, "1/kacc"},
		{"model.reductions_per_kacc", float64(t.FullReductions+t.PartialReductions) * 1000 / acc, "1/kacc"},
		{"model.offchip_bytes_per_acc", float64(t.Traffic.OffChipBytes) / acc, "B/access"},
	}
}

// traced spends the first half of the window on the Sweeper, untraced,
// and the second half calling the layers one public function at a time
// with a span around each call. The Go allocation counts come from the
// untraced half, so they are the Sweeper's and not the tracer's.
func (w simWorkload) traced(cfg runConfig, sw *coup.Sweeper, specs []coup.RunSpec, ref []coup.Stats, res *result) {
	half := cfg.seconds / 2
	g0 := readGoCounters()
	plain := w.measure(sw, specs, ref, half, res)
	g := readGoCounters().sub(g0)
	plainSpecs := float64(len(plain) * len(specs))

	tr := &tracedRunner{w: w, seed: cfg.seed, arenas: make([]*sim.Arena, w.parallelism)}
	for i := range tr.arenas {
		tr.arenas[i] = sim.NewArena()
	}
	tr.cycle(nil, ref, res) // warms the traced path's own arenas

	rec := newRecorder()
	warm0, cold0 := tr.poolStats()
	var times []time.Duration
	deadline := time.Now().Add(time.Duration(half * float64(time.Second)))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		tr.cycle(rec, ref, res)
		times = append(times, time.Since(t0))
	}
	warm, cold := tr.poolStats()
	spans := rec.take()

	lt := layerTotals(spans)
	nSpecs := float64(len(times) * len(specs))
	usPerSpec := func(ns int64) float64 { return float64(ns) / 1e3 / nSpecs }
	var acc uint64
	for _, s := range ref {
		acc += s.Accesses
	}
	spec := lt["coup.spec"]
	res.add(
		metric{"coup.spec.us_per_spec", usPerSpec(spec.total), "us/spec"},
		metric{"coup.unattributed.us_per_spec", usPerSpec(spec.self), "us/spec"},
		metric{"workloads.setup.us_per_spec", usPerSpec(lt["workloads.setup"].total), "us/spec"},
		metric{"sim.build.us_per_spec", usPerSpec(lt["sim.build"].total), "us/spec"},
		metric{"sim.run.us_per_spec", usPerSpec(lt["sim.run"].total), "us/spec"},
		metric{"sim.run.ns_per_access", float64(lt["sim.run"].total) / float64(uint64(len(times))*acc), "ns/access"},
		metric{"workloads.validate.us_per_spec", usPerSpec(lt["workloads.validate"].total), "us/spec"},
		metric{"sim.invariants.us_per_spec", usPerSpec(lt["sim.invariants"].total), "us/spec"},
		metric{"sim.release.us_per_spec", usPerSpec(lt["sim.release"].total), "us/spec"},
		metric{"sim.arena.warm_ratio", float64(warm-warm0) / float64(warm-warm0+cold-cold0), "ratio"},
		metric{"go.alloc_bytes_per_spec", g.allocBytes / plainSpecs, "B/spec"},
		metric{"go.allocs_per_spec", g.allocs / plainSpecs, "allocs/spec"},
		metric{"go.gc_cycles", g.gcCycles, "count"},
		metric{"trace.overhead_ratio", fastDecile(secondsOf(times)) / fastDecile(secondsOf(plain)), "ratio"},
	)
	var layers int64
	for name, t := range lt {
		if name != "coup.spec" {
			layers += t.total
		}
	}
	if layers+spec.self != spec.total {
		res.problem("layer times %d ns + unattributed %d ns != spec time %d ns", layers, spec.self, spec.total)
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			res.problem("%v", err)
		}
	}
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tracedRunner runs a cycle the way coup.Sweeper does, one worker
// goroutine and one arena per unit of parallelism, but calls each layer
// itself.
type tracedRunner struct {
	w      simWorkload
	seed   uint64
	arenas []*sim.Arena
}

func (t *tracedRunner) poolStats() (warm, cold uint64) {
	for _, a := range t.arenas {
		w, c := a.PoolStats()
		warm, cold = warm+w, cold+c
	}
	return warm, cold
}

func (t *tracedRunner) cycle(rec *recorder, ref []coup.Stats, res *result) {
	n := len(t.w.cycle)
	stats := make([]coup.Stats, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, a := range t.arenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				stats[i], errs[i] = runTraced(rec, a, t.w.cycle[i], specSeed(t.seed, i))
			}
		}()
	}
	wg.Wait()
	for i := range stats {
		t.w.check(i, stats[i], errs[i], ref, res)
	}
}

// runTraced is workloads.RunIn plus coup's option and stats handling,
// with a span around each layer call.
func runTraced(rec *recorder, a *sim.Arena, d specDef, seed uint64) (st coup.Stats, err error) {
	sp := rec.open("coup.spec", 0, 0)
	defer sp.close()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	call := func(name string, f func()) {
		c := rec.open(name, sp.id(), sp.s.Req)
		f()
		c.close()
	}
	info, ok := workloads.ByName(d.workload)
	if !ok {
		return st, fmt.Errorf("unknown workload %q", d.workload)
	}
	proto, ok := sim.ProtocolByName(d.protocol)
	if !ok {
		return st, fmt.Errorf("unknown protocol %q", d.protocol)
	}
	p := d.params
	p.Seed = seed
	cfg := sim.DefaultConfig(d.cores, proto)
	cfg.Seed = seed

	var w workloads.Workload
	call("workloads.setup", func() { w, err = info.New(p) })
	if err != nil {
		return st, err
	}
	var m *sim.Machine
	call("sim.build", func() { m = sim.NewIn(a, cfg) })
	call("workloads.setup", func() { w.Setup(m) })
	var raw sim.Stats
	call("sim.run", func() { raw = m.Run(w.Kernel) })
	call("workloads.validate", func() { err = w.Validate(m) })
	if err != nil {
		return st, err
	}
	call("sim.invariants", func() { err = m.CheckInvariants() })
	if err != nil {
		return st, err
	}
	call("sim.release", m.Release)
	return statsOf(raw, cfg, info.Name), nil
}

// statsOf builds the coup.Stats the facade would return for raw. It
// repeats pkg/coup's unexported conversion; the check against the
// Sweeper's stats for the same spec catches any drift.
func statsOf(st sim.Stats, cfg sim.Config, workload string) coup.Stats {
	b := st.AMATBreakdown()
	return coup.Stats{
		Protocol:     cfg.Protocol.String(),
		Workload:     workload,
		Cores:        cfg.Cores,
		Cycles:       st.Cycles,
		Instructions: st.Instrs,
		Accesses:     st.Accesses,
		Loads:        st.Loads,
		Stores:       st.Stores,
		Atomics:      st.Atomics,
		CommUpdates:  st.CommUpdates,
		L1Hits:       st.L1Hits,
		L2Hits:       st.L2Hits,
		L3Hits:       st.L3Hits,
		L4Hits:       st.L4Hits,
		MemAccesses:  st.MemAccs,
		ULocalHits:   st.ULocalHits,
		AMAT:         st.AMAT(),
		Breakdown: coup.AMATBreakdown{
			L1: b[0], L2: b[1], L3: b[2], OffChipNet: b[3],
			L4Inval: b[4], L4: b[5], MainMem: b[6],
		},
		Invalidations:     st.Invalidations,
		Downgrades:        st.Downgrades,
		FullReductions:    st.FullReductions,
		PartialReductions: st.PartialReductions,
		TypeSwitches:      st.TypeSwitches,
		UGrants:           st.UGrants,
		Traffic: coup.Traffic{
			OnChipMsgs:   st.OnChipMsgs,
			OnChipBytes:  st.OnChipBytes,
			OffChipMsgs:  st.OffChipMsgs,
			OffChipBytes: st.OffChipBytes,
			MemBytes:     st.MemBytes,
		},
	}
}
