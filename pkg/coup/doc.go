// Package coup is the public API of the COUP reproduction (Zhang,
// Harrison & Sanchez, "Exploiting Commutativity to Reduce the Cost of
// Updates to Shared Data in Cache-Coherent Systems", MICRO 2015). It
// exposes the execution-driven simulator, the paper's protocols and
// benchmarks, and the experiment entry points behind a stable facade so
// that protocols and workloads are selected by name.
//
// # Concepts and where they come from in the paper
//
//   - Protocol: a coherence protocol, selected by name. The five are the
//     paper's: MESI (the Sec 2 baseline, commutative updates run as
//     atomics), MSI (the E-less starting point of Sec 3.1), MUSI (MSI
//     plus COUP's update-only U state, Fig 4), MEUSI (the full COUP
//     protocol with the exclusive-clean optimization, Fig 6), and RMO
//     (remote memory operations executed at the line's home L4 bank,
//     Fig 1b). They form a fixed table; the engine reads only its three
//     behaviour axes (E state, U state, remote updates).
//
//   - Workload: one benchmark instance. The built-ins are the Table 2
//     applications (hist, spmv, pgrank, bfs, fluid) and the Sec 5.4
//     reference-counting family (refcount, refcount-snzi, counter,
//     refcount-delayed, refcount-refcache), each expressed once with
//     commutative-update instructions so a single kernel runs unmodified
//     under every protocol. Every run validates its final memory image
//     against a sequential reference.
//
//   - Machine: the simulated multi-socket system of Table 1 / Fig 9,
//     built with functional options: NewMachine(WithCores(64),
//     WithProtocol("MEUSI"), ...). Alloc simulated memory, Run a kernel,
//     read the final image back. Freeze marks input that kernels only
//     read: its loads then cost the host no coroutine switch, results do
//     not change, and a kernel write to it fails with a
//     *FrozenWriteError (returned by Run, panicked by Machine.Run). The
//     built-in workloads freeze their inputs this way.
//
//   - Stats: one run's measurements — cycles, the Fig 11 AMAT breakdown,
//     protocol events (reductions, invalidations, U grants) and the
//     Sec 5.2 traffic split. The type is stable and JSON-serializable.
//     MeanStats aggregates repeated seeded runs of one configuration.
//
//   - Sweep: the parallel experiment engine. An evaluation grid —
//     workloads × protocols × core counts × seeded reps — is a list of
//     independent simulations; Sweep executes a []RunSpec across a bounded
//     worker pool (WithParallelism, default GOMAXPROCS) and returns one
//     SweepResult per spec, in input order, with per-spec errors. Workers
//     start the specs with the most cores first. Every machine is
//     isolated and every seed lives in its spec, so results are identical
//     at any parallelism; only wall-clock time changes.
//
//     Each worker owns a machine arena (internal/sim.Arena): machine-sized
//     scratch — cache and directory arrays, backing-store pages, bank
//     tables — is built once per geometry per worker and recycled across
//     the specs that worker executes, zeroed on reuse. Repeated small
//     simulations (the fig13 refcount grids) therefore run allocation-free
//     at steady state, ~2.7x faster than with per-spec construction.
//     Arenas never change results: TestSweepArenaGolden pins a sweep
//     byte-identical to a per-spec Run, which builds a fresh machine each
//     time. Callers issuing many sweeps can hoist the validated
//     configuration with NewSweeper and reuse one Sweeper — its arenas
//     stay warm across Run calls. Invalid parallelism is a typed error,
//     ErrInvalidParallelism.
//
// # Quickstart
//
// Run a registered workload by name under two protocols and compare:
//
//	for _, p := range []string{"MESI", "MEUSI"} {
//		st, err := coup.Run("hist",
//			coup.WithCores(64),
//			coup.WithProtocol(p),
//			coup.WithWorkloadParams(coup.WorkloadParams{Size: 100_000, Bins: 512}),
//		)
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Printf("%-6s %d cycles\n", p, st.Cycles)
//	}
//
// Or build a machine and drive a custom kernel (the Fig 1 contended
// counter):
//
//	m, err := coup.NewMachine(coup.WithCores(64), coup.WithProtocol("MEUSI"))
//	if err != nil {
//		log.Fatal(err)
//	}
//	ctr := m.Alloc(64, 64)
//	st := m.Run(func(c *coup.Ctx) {
//		for i := 0; i < 1000; i++ {
//			c.CommAdd64(ctr, 1)
//		}
//	})
//	fmt.Println(st.Cycles, m.ReadWord64(ctr))
//
// Fan a grid of independent runs out over all CPUs (results in input
// order, per-spec errors):
//
//	var specs []coup.RunSpec
//	for _, cores := range []int{1, 16, 32, 64, 96, 128} {
//		for seed := uint64(1); seed <= 5; seed++ {
//			specs = append(specs, coup.RunSpec{
//				Workload: "hist",
//				Options: []coup.Option{
//					coup.WithCores(cores), coup.WithProtocol("MEUSI"), coup.WithSeed(seed),
//				},
//			})
//		}
//	}
//	results, err := coup.Sweep(specs) // or coup.WithParallelism(n)
//
// All lookups by name (protocols, workloads) are case-insensitive, and
// unknown names return typed errors (ErrUnknownProtocol,
// ErrUnknownWorkload) listing the names that exist.
//
// # Related: pkg/commute, the software Coup runtime
//
// This package measures COUP on a simulated machine; its sibling
// pkg/commute delivers the same privatize-then-merge strategy as a
// concurrent data-structure library on the real one. The protocol
// concepts map one-to-one — the U state becomes a cache-line-padded
// private shard, the reduction unit becomes merge-on-read, the Fig 5
// GetS flows become the Read path — and the "figsw" experiment
// (coupbench -exp figsw, backed by cmd/commutebench) runs the two side
// by side on the same workload shapes as a
// hardware-vs-simulation cross-validation. See pkg/commute's package
// documentation for the full mapping table.
package coup
