package sim

// Breakdown decomposes memory-access latency into the Fig 11 buckets. Each
// field is the summed critical-path cycles attributed to that part of the
// hierarchy across all accesses (e.g. L4Inval is not the cost of every
// invalidation, but the delay requests suffered because other sharers had
// to be invalidated, downgraded or reduced by the global directory).
type Breakdown struct {
	L1      uint64 // L1D hit time
	L2      uint64 // private L2
	L3      uint64 // L3 bank + in-chip directory actions (incl. in-chip invals)
	Net     uint64 // off-chip network traversals
	L4Inval uint64 // L4-orchestrated invalidations/downgrades/reductions + line serialization
	L4      uint64 // L4 bank + global directory access
	Mem     uint64 // main memory
}

// Total returns the summed cycles across all buckets.
func (b Breakdown) Total() uint64 {
	return b.L1 + b.L2 + b.L3 + b.Net + b.L4Inval + b.L4 + b.Mem
}

func (b *Breakdown) add(o Breakdown) {
	b.L1 += o.L1
	b.L2 += o.L2
	b.L3 += o.L3
	b.Net += o.Net
	b.L4Inval += o.L4Inval
	b.L4 += o.L4
	b.Mem += o.Mem
}

// Scale divides every bucket by n (for averaging).
func (b Breakdown) Scale(n float64) [7]float64 {
	return [7]float64{
		float64(b.L1) / n, float64(b.L2) / n, float64(b.L3) / n,
		float64(b.Net) / n, float64(b.L4Inval) / n, float64(b.L4) / n,
		float64(b.Mem) / n,
	}
}

// Stats aggregates everything a simulation run measures.
type Stats struct {
	// Cycles is the simulated end-to-end run time (max core finish time).
	Cycles uint64

	// Operation counts.
	Accesses    uint64 // all memory operations issued by cores
	Loads       uint64
	Stores      uint64
	Atomics     uint64 // atomic RMWs and CASes (incl. failed CASes)
	CommUpdates uint64 // commutative-update instructions
	Instrs      uint64 // ops + Work()-modelled instructions, for Table 2 fractions

	// Hit distribution (where each access was satisfied).
	L1Hits  uint64
	L2Hits  uint64
	L3Hits  uint64
	L4Hits  uint64
	MemAccs uint64

	// ULocalHits counts commutative updates satisfied in the private cache
	// (U or M/E state) — COUP's fast path.
	ULocalHits uint64

	// Latency decomposition (summed over all accesses).
	Breakdown Breakdown

	// Protocol events.
	Invalidations     uint64 // copies invalidated on behalf of other caches
	Downgrades        uint64 // M/E owners downgraded
	FullReductions    uint64 // reductions triggered by reads/writes/type switches
	PartialReductions uint64 // reductions triggered by evictions
	TypeSwitches      uint64 // non-exclusive operation-type changes
	UGrants           uint64 // update-only permissions granted

	// Traffic, split between on-chip (core<->L3) and off-chip
	// (chip<->L4 over the dancehall links).
	OnChipMsgs   uint64
	OnChipBytes  uint64
	OffChipMsgs  uint64
	OffChipBytes uint64
	MemBytes     uint64
}

// AMAT returns the average memory access time in cycles.
func (s *Stats) AMAT() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Breakdown.Total()) / float64(s.Accesses)
}

// AMATBreakdown returns the per-access average of each latency bucket.
func (s *Stats) AMATBreakdown() [7]float64 {
	if s.Accesses == 0 {
		return [7]float64{}
	}
	return s.Breakdown.Scale(float64(s.Accesses))
}

// Message size constants for traffic accounting (64-byte lines plus an
// 8-byte control header; control-only messages are 8 bytes).
const (
	ctrlBytes = 8
	dataBytes = 64 + ctrlBytes
)
