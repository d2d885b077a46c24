// Package obs is the repo's observability layer, built on pkg/commute so
// that metrics are themselves an instance of the paper's claim: updates
// to shared data can be nearly free when the operations commute.
//
// # U-state and S-state, applied to telemetry
//
// In the paper's vocabulary, a cache line in U-state holds a private,
// update-only copy: cores apply commutative updates locally and a reader
// forces a reduction back to S-state. Every obs write maps onto that
// split:
//
//   - Counter.Inc / Counter.Add and Histogram.Observe are U-state
//     operations — each lands on the calling goroutine's private shard
//     (commute's per-P cache-line-padded copies) as one uncontended
//     atomic, with no cross-core communication.
//   - Reading a metric — Counter.Value, Histogram.Snapshot, a scrape of
//     Registry.WriteMetrics — is the S-state transition: a
//     reduce-on-read fold over the shards, paid only when someone
//     actually looks.
//   - A Histogram's exact Min and Max live in a commute.MinMax, the
//     degenerate idempotent case: an observation that does not improve
//     the running extreme completes as a pure load (a silent U hit).
//
// Because an always-on metrics layer updates far more often than it is
// scraped, this asymmetry is exactly the right trade — which is why the
// repo dogfoods its own commutative structures as the telemetry
// substrate rather than guarding plain counters with locks.
//
// # Registry and exposition
//
// A Registry maps names to metric families (Counter, UpDownCounter,
// Gauge, log2-bucket Histogram) with GetOrCreate semantics.
// WriteMetrics emits the Prometheus text exposition format (0.0.4) in
// sorted-name order, so identical registry state produces byte-identical
// pages; Handler mounts that at GET /metrics. Runtime gauges (GC
// cycles, goroutines, heap bytes) come from runtime/metrics via
// RegisterRuntimeMetrics.
//
// Every write path carries //coup:hotpath and is vetted by coupvet
// -escapes; the instrumented-vs-bare benchmarks in this package and
// pkg/coupd quantify the overhead the design keeps low.
package obs
