// Package sim is an execution-driven, cycle-accounting simulator of the
// multi-socket cache-coherent system the paper evaluates (Table 1, Fig 9):
// 1–128 cores, 16 cores per processor chip, per-core L1D and L2, a banked
// per-chip L3 with an in-cache directory, a dancehall off-chip network to
// the same number of L4-and-global-directory chips, and DDR3-like memory
// channels. It implements both the MESI baseline and COUP's MEUSI, plus a
// remote-memory-operation (RMO) mode as an extra baseline for the Fig 1
// comparison.
//
// # Engine architecture
//
// Simulated threads are ordinary Go functions, each run inside a pulled
// iterator (iter.Pull), so suspending a thread at a memory operation and
// resuming it with the result is a direct coroutine switch — no channels
// and no Go-scheduler round trip. Exactly one thread executes at any
// instant: the engine services the thread whose next operation has the
// earliest (issue time, core id), applies it functionally, charges its
// latency, and resumes it. Execution is therefore deterministic, data-race
// free, and functionally exact: CAS failures, atomic interleavings and COUP
// reductions all happen for real, and every workload validates its final
// memory image against a sequential reference.
//
// A thread is resumed only when it needs a result. Operations that return
// nothing — stores, commutative updates (native, including under RMO), and
// what a commutative update falls back to under MESI/MSI: the integer
// fetch-op with its result discarded, or the floating-point load+CAS retry
// loop, which the engine runs one access at a time — are posted: they
// queue on the issuing core, each with the Work cycles since its
// predecessor, and the thread runs on. So are loads of memory frozen with
// Machine.Freeze: nothing writes it, so the value is known at issue and
// only the access's timing is left to the engine. The engine services
// posted ops one at a time in the same (issue time, core id) order as any
// other op, so simulated results are exactly those of blocking on every
// op; the host just skips a coroutine switch pair per op. Loads of written
// memory, CAS, atomics, barriers, Now and a full queue still block. The
// price is a kernel contract: a thread may run ahead, in host time, of its
// own queued ops, so kernels exchange data only through simulated memory,
// or through Go-side state across a Barrier, which drains every queue; and
// kernels never write frozen memory, which panics with a
// *FrozenWriteError. Machine.EngineCounters reports how many ops went
// inline, posted or through the scheduler, and how many resumes a run
// cost.
//
// Three structures keep the per-operation cost allocation-free: the
// scheduler is a loser tree over packed (time<<16 | id) keys whose root
// names the next core and whose path losers bound how far that core may
// run ahead — operations below that horizon are serviced inline in
// Ctx.exec or Ctx.post with no coroutine switch at all (a single-core
// machine runs its whole kernel that way); the cache and directory arrays
// store 31-bit hardware-style tags structure-of-arrays in lazily allocated
// pages; and the backing memory image is a two-level paged table with
// lines embedded by value. The loser tree is the only scheduler: it covers
// every machine the package can build, because the hierarchy tracks
// sharers in uint64 bitvectors — one bit per chip at the L4 directory, one
// per core at each L3 — which caps a machine at 64 chips of 64 cores
// (4096). See README.md for measured throughput.
//
// The simulator substitutes for zsim (Sanchez & Kozyrakis, ISCA'13), which
// the paper used. It models the Table 1 memory system in detail and a core
// only as a stream of memory operations, with other instructions charged
// through Ctx.Work, so absolute cycle counts differ from the paper's and
// the figures compare protocols with each other.
package sim

import (
	"fmt"
	"slices"
	"strings"
)

// Protocol selects the memory-system behaviour of a simulated machine: one
// of the five protocols in the fixed table below. The engine never
// compares protocols by id; it reads only their behaviour axes.
type Protocol uint8

const (
	// MESI is the baseline protocol; commutative updates execute as atomic
	// read-modify-writes (or CAS loops for floating point).
	MESI Protocol = iota
	// MEUSI is MESI extended with COUP's update-only state (Fig 6).
	MEUSI
	// RMO models remote memory operations (Fig 1b): commutative updates are
	// shipped to the line's home L4 bank and executed by an ALU there; lines
	// being remotely updated are not cached by updaters.
	RMO
	// MSI is the E-less baseline (Sec 3.1's starting point); used to ablate
	// the exclusive-clean optimization.
	MSI
	// MUSI is MSI plus the update-only state (Fig 4): COUP without the
	// E-state optimization of Fig 6.
	MUSI

	numProtocols
)

// protocols is the protocol table, indexed by Protocol. It holds the three
// axes the engine reads: hasE grants a lone reader the exclusive-clean E
// state (and, with hasU, a lone updater M rather than U); hasU gives
// commutative updates COUP's update-only state; remote ships them to the
// line's home L4 bank instead of caching them.
var protocols = [numProtocols]struct {
	name, desc         string
	hasE, hasU, remote bool
}{
	MESI:  {name: "MESI", desc: "baseline; commutative updates run as atomics (Sec 2)", hasE: true},
	MEUSI: {name: "MEUSI", desc: "COUP on MESI: update-only state with E optimization (Fig 6)", hasE: true, hasU: true},
	RMO:   {name: "RMO", desc: "remote memory operations at the home L4 bank (Fig 1b)", hasE: true, remote: true},
	MSI:   {name: "MSI", desc: "E-less baseline (Sec 3.1 starting point)"},
	MUSI:  {name: "MUSI", desc: "COUP on MSI: update-only state without E (Fig 4)", hasU: true},
}

// ProtocolByName looks up a protocol case-insensitively.
func ProtocolByName(name string) (Protocol, bool) {
	for i, s := range protocols {
		if strings.EqualFold(s.name, name) {
			return Protocol(i), true
		}
	}
	return 0, false
}

// ProtocolIDs returns the id of every protocol, sorted by name.
func ProtocolIDs() []Protocol {
	ids := make([]Protocol, numProtocols)
	for i := range ids {
		ids[i] = Protocol(i)
	}
	slices.SortFunc(ids, func(a, b Protocol) int { return strings.Compare(a.String(), b.String()) })
	return ids
}

func (p Protocol) String() string {
	if p < numProtocols {
		return protocols[p].name
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// Description is a one-line summary naming the paper figure or section
// the protocol comes from.
func (p Protocol) Description() string { return protocols[p].desc }

// HasU reports whether the protocol supports COUP's update-only state.
func (p Protocol) HasU() bool { return protocols[p].hasU }

// Remote reports whether commutative updates execute at the home L4 bank.
func (p Protocol) Remote() bool { return protocols[p].remote }

func (p Protocol) hasE() bool { return protocols[p].hasE }

// commNative reports whether commutative-update instructions execute as
// such rather than falling back to conventional atomics.
func (p Protocol) commNative() bool { return p.HasU() || p.Remote() }

// Config describes a simulated machine. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Protocol Protocol
	// Cores is the total number of simulated cores (1–128 in the paper).
	Cores int
	// CoresPerChip is the number of cores per processor chip (Table 1: 16).
	CoresPerChip int

	// Latencies, in cycles at 2.4 GHz (Table 1).
	L1Lat   uint64 // L1D hit: 4
	L2Lat   uint64 // private L2: 7
	L3Lat   uint64 // shared L3 bank + in-cache directory: 27
	LinkLat uint64 // off-chip point-to-point link, each direction: 40
	L4Lat   uint64 // L4 bank + global directory: 35
	MemLat  uint64 // DDR3-1600-CL10 access: ~120 cycles

	// OnChipHop is the one-way on-chip network latency between an L3 bank
	// and a core's private L2, used for invalidation/reduction round trips.
	OnChipHop uint64
	// AtomicOverhead models the four-µop load-linked/execute/store-
	// conditional/fence sequence used for both atomic and commutative-update
	// instructions (Sec 5.1).
	AtomicOverhead uint64

	// Cache geometry. Sizes are in bytes; defaults are the unscaled Table 1
	// organization (cache arrays are lazily allocated per set, so full-size
	// geometry costs memory only for the sets a workload touches). Using the
	// real capacities keeps the key working sets — histograms, bitmaps,
	// counter pools — in the same fits-in-L2/L3 regimes as the paper even
	// though input streams are scaled down.
	//
	// Together with Cores/CoresPerChip and the bank/channel counts below,
	// these fields form the geometry key an Arena pools machines under
	// (see arena.go): two configs differing only in protocol, latencies,
	// seed or jitter recycle the same machine.
	L1Size, L1Ways   int // 32 KB, 8-way
	L2Size, L2Ways   int // 256 KB, 8-way
	L3Size, L3Ways   int // per chip; 32 MB, 16-way, 8 banks
	L4Size, L4Ways   int // per L4 chip; 128 MB, 16-way, 8 banks
	L3Banks, L4Banks int
	MemChannels      int // DDR3 channels per L4 chip: 4

	// DirBankService is the bank occupancy per directory transaction.
	DirBankService uint64
	// MemChannelService is the channel occupancy per memory access (burst).
	MemChannelService uint64

	// Reduction unit (Sec 5.1): a 2-stage pipelined 256-bit ALU reduces one
	// 64-byte line every 2 cycles with a 3-cycle latency. The Sec 5.5
	// sensitivity study compares against an unpipelined 64-bit ALU (one line
	// per 16 cycles).
	ReduceCyclesPerLine uint64
	ReduceLatency       uint64

	// FlatReductions disables hierarchical reductions (Sec 3.2): the L4
	// collects one partial per core rather than one per chip. Ablation only.
	FlatReductions bool

	// BarrierBase and BarrierPerLog2Core model a software tree barrier.
	BarrierBase        uint64
	BarrierPerLog2Core uint64

	// Seed drives the workload RNGs and the small non-determinism injection
	// (Alameldeen & Wood) used to compute confidence intervals.
	Seed uint64
	// Jitter is the maximum per-miss random latency perturbation, cycles.
	Jitter uint64
}

// DefaultConfig returns the Table 1 machine with the given core count and
// protocol, with cache capacities scaled as documented on Config.
func DefaultConfig(cores int, p Protocol) Config {
	return Config{
		Protocol:     p,
		Cores:        cores,
		CoresPerChip: 16,

		L1Lat: 4, L2Lat: 7, L3Lat: 27, LinkLat: 40, L4Lat: 35, MemLat: 120,
		OnChipHop:      6,
		AtomicOverhead: 10,

		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 32 << 20, L3Ways: 16, L3Banks: 8,
		L4Size: 128 << 20, L4Ways: 16, L4Banks: 8,
		MemChannels: 4,

		DirBankService:    4,
		MemChannelService: 10,

		ReduceCyclesPerLine: 2,
		ReduceLatency:       3,

		BarrierBase:        300,
		BarrierPerLog2Core: 60,

		Seed:   1,
		Jitter: 3,
	}
}

// Chips returns the number of processor chips (== L4 chips; the paper
// scales both together, Sec 5.1).
func (c *Config) Chips() int {
	n := (c.Cores + c.CoresPerChip - 1) / c.CoresPerChip
	if n < 1 {
		n = 1
	}
	return n
}

// sharerBits is the width of the hierarchy's sharer bitvectors: the L4
// directory keeps one bit per chip and each L3 one bit per core of its
// chip. A machine therefore has at most sharerBits chips of at most
// sharerBits cores.
const sharerBits = 64

// maxCores is the largest machine Validate accepts.
const maxCores = sharerBits * sharerBits

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Protocol >= numProtocols {
		return fmt.Errorf("sim: unknown protocol id %d", uint8(c.Protocol))
	}
	if c.Cores < 1 {
		return fmt.Errorf("sim: Cores must be >= 1, got %d", c.Cores)
	}
	if c.CoresPerChip < 1 {
		return fmt.Errorf("sim: CoresPerChip must be >= 1")
	}
	if c.CoresPerChip > sharerBits {
		return fmt.Errorf("sim: CoresPerChip must be <= %d (one sharer bit per core), got %d", sharerBits, c.CoresPerChip)
	}
	if c.Cores > sharerBits*c.CoresPerChip {
		return fmt.Errorf("sim: too many cores (%d): at most %d chips of %d", c.Cores, sharerBits, c.CoresPerChip)
	}
	for _, g := range []struct {
		name       string
		size, ways int
	}{
		{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2Size, c.L2Ways},
		{"L3", c.L3Size, c.L3Ways}, {"L4", c.L4Size, c.L4Ways},
	} {
		if g.size < 64*g.ways || g.ways < 1 {
			return fmt.Errorf("sim: bad %s geometry (%dB, %d ways)", g.name, g.size, g.ways)
		}
	}
	if c.L3Banks < 1 || c.L4Banks < 1 || c.MemChannels < 1 {
		return fmt.Errorf("sim: banks/channels must be >= 1")
	}
	if c.ReduceCyclesPerLine < 1 {
		return fmt.Errorf("sim: ReduceCyclesPerLine must be >= 1")
	}
	return nil
}

func log2ceil(n int) uint64 {
	var l uint64
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
