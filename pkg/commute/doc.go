// Package commute is a software Coup runtime: concurrent data structures
// that buffer commutative updates in cache-line-padded private shards and
// fold them with a reduction only when someone reads — the same
// privatize-then-merge strategy the COUP coherence protocol (Zhang,
// Harrison & Sanchez, MICRO 2015) implements in hardware with its
// update-only U state, and that this repository otherwise only simulates.
//
// Where pkg/coup measures the protocol on a simulated machine, pkg/commute
// delivers the same win on the real one: updates touch a shard biased to
// the calling goroutine's processor, so concurrent writers stop fighting
// over one cache line, and the cost of merging is paid by readers, who are
// rare in update-heavy phases. The cmd/commutebench CLI and the "figsw"
// experiment in the harness cross-validate the two: measured software
// scaling next to the simulator's MESI-vs-MEUSI curves on the same
// workload shapes. With -addr or -self, commutebench drives the same
// traffic through the coupd service instead.
//
// # Protocol concepts, library concepts
//
// Every mechanism here is the software image of a protocol mechanism:
//
//	coherence protocol (paper)          pkg/commute
//	----------------------------------  ----------------------------------
//	U state: private, update-only copy  private shard: padded per-P slot
//	line initialized to identity on     shard initialized to the op's
//	  transition into U (Sec 3.1.2)       identity at construction (0 for
//	                                      adds, MaxInt64/MinInt64 for min
//	                                      and max)
//	commutative-update instruction      Add/Inc/Observe: update-only
//	  (no read permission needed)         fast path, never reads the total
//	reduction unit folding U copies     Value/Bin/Snapshot: a sum, min or
//	GetS triggering a full reduction,     max folded over every shard
//	  U->S downgrade (Fig 5 flows)
//	single-sharer partial reduction     uncontended shard: the fold
//	  (Sec 3.3)                           degenerates to one load
//	op-type table per line (Sec 3.2)    fixed per structure: Counter,
//	                                      Histogram and RefCount add,
//	                                      MinMax folds min and max
//	SNZI / escalation for zero checks   RefCount: nonzero-shard indicator
//	  (Sec 5.4)                           plus Escalate() to an exact mode
//
// # Structures
//
// Four structures cover the paper's workload families:
//
//   - Counter: sharded add (the Fig 1 contended counter).
//   - Histogram: vector add over buckets (the Fig 2/Fig 10 hist family).
//   - MinMax: idempotent min/max — updates that already hold are pure
//     loads, the software image of a silent U hit.
//   - RefCount: reference counting with zero-detection escalation:
//     private shards plus an SNZI-style nonzero indicator, the Sec 5.4
//     comparison that internal/workloads/refcount.go simulates.
//
// All structures are safe for concurrent use by any number of goroutines.
// Updates are linearizable per shard; reads fold the shards and are exact
// whenever they do not race with in-flight updates (e.g. at any quiescent
// point, or under external synchronization), which is the same guarantee
// a parallel reduction gives. Counter.Value and Histogram.Snapshot observe
// every update that happened-before the call.
//
// # Read-side snapshot helpers
//
// Every structure exposes a Snapshot method with one signature shape:
// reduce the structure's full state into a caller-owned buffer, allocate
// only when the buffer is too small, return the filled prefix. These are
// the wire-format read path — a server (pkg/coupd) snapshotting thousands
// of structures per second reuses one buffer and never allocates:
//
//	Histogram.Snapshot(dst []uint64) []uint64  // one element per bin
//	Counter.Snapshot(dst []int64) []int64      // [value]
//	MinMax.Snapshot(dst []int64) []int64       // [n, min, max]
//	RefCount.Snapshot(dst []int64) []int64     // [count, escalated 0/1]
//
// Each Snapshot observes every update that happened-before the call, the
// same guarantee as the structure's scalar readers.
//
// # Shard count
//
// Every structure has the next power of two >= GOMAXPROCS shards, fixed
// at construction: the software analogue of one U copy per private cache.
// The count sits on the paper's reduction-cost vs update-locality trade
// (Sec 3.3): fewer shards would shrink the merge cost of reads, more
// would reduce update contention.
package commute
