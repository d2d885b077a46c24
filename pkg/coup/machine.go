package coup

import (
	"repro/internal/sim"
)

// Ctx is the interface a simulated thread uses to touch the memory system:
// loads, stores, x86-style atomics, and COUP's commutative-update
// instructions (CommAdd64, CommOr64, ...). Kernels passed to Machine.Run
// receive one Ctx per simulated core.
type Ctx = sim.Ctx

// FrozenWriteError reports a kernel write to memory frozen with
// Machine.Freeze (or by a workload's Setup): the address and the writing
// core. Run and RunWorkload return it wrapped, for errors.As; Machine.Run
// panics with it.
type FrozenWriteError = sim.FrozenWriteError

// Machine is a configured simulated system: the multi-socket,
// four-level-hierarchy machine of Table 1 / Fig 9. Build one with
// NewMachine, set up simulated memory with Alloc/WriteWord64, then Run a
// kernel once. Machines are single-run.
type Machine struct {
	m    *sim.Machine
	prot Protocol
}

// NewMachine builds a machine from the Table 1 defaults (64 cores, MEUSI)
// plus the given options. It returns a typed error (ErrInvalidOption,
// ErrConflictingOptions, ErrUnknownProtocol) on bad option lists.
func NewMachine(opts ...Option) (*Machine, error) {
	b, err := newBuilder(opts)
	if err != nil {
		return nil, err
	}
	return &Machine{m: sim.New(b.cfg), prot: simProtocol{id: b.cfg.Protocol}}, nil
}

// Protocol returns the protocol the machine runs.
func (m *Machine) Protocol() Protocol { return m.prot }

// Cores returns the simulated core count.
func (m *Machine) Cores() int { return m.m.Config().Cores }

// Chips returns the number of processor chips (== memory chips; the paper
// scales both together, Sec 5.1).
func (m *Machine) Chips() int {
	cfg := m.m.Config()
	return cfg.Chips()
}

// Alloc reserves size bytes of simulated memory aligned to align (a power
// of two, at least 8) and returns the base address. Valid before Run only.
func (m *Machine) Alloc(size, align uint64) uint64 { return m.m.Alloc(size, align) }

// AllocLines reserves n cache lines and returns the 64-byte-aligned base
// address.
func (m *Machine) AllocLines(n uint64) uint64 { return m.m.AllocLines(n) }

// WriteWord64 initializes a 64-bit simulated memory word before Run (no
// timing cost).
func (m *Machine) WriteWord64(addr, v uint64) { m.m.WriteWord64(addr, v) }

// WriteWord32 initializes a 32-bit simulated memory word before Run.
func (m *Machine) WriteWord32(addr uint64, v uint32) { m.m.WriteWord32(addr, v) }

// Freeze declares [addr, addr+size), which must be allocated, read-only
// for kernels. Loads of a frozen line then cost the host no coroutine
// switch: the kernel takes the value at issue and runs on, while the
// simulated access keeps its place in the global order, so results do not
// change. A kernel write to a frozen line, of any kind, makes Run panic
// with a *FrozenWriteError. Valid before Run only.
func (m *Machine) Freeze(addr, size uint64) { m.m.Freeze(addr, size) }

// ReadWord64 inspects simulated memory. After Run the machine is drained,
// so the value reflects all buffered commutative updates.
func (m *Machine) ReadWord64(addr uint64) uint64 { return m.m.ReadWord64(addr) }

// ReadWord32 inspects a 32-bit simulated memory word.
func (m *Machine) ReadWord32(addr uint64) uint32 { return m.m.ReadWord32(addr) }

// Run executes kernel once per simulated core, each as a simulated thread,
// and returns the run's statistics. Run may be called once per Machine.
// A kernel runs ahead, in host time, of its own stores, commutative
// updates and loads of frozen memory, so kernels must exchange data
// through simulated memory, or through Go-side state only across a
// Barrier, and must not write frozen memory. A kernel's panic — a
// *FrozenWriteError included — propagates out of Run once every other
// kernel has been stopped.
func (m *Machine) Run(kernel func(c *Ctx)) Stats {
	st := m.m.Run(kernel)
	return statsFrom(st, m.m.Config(), "")
}

// CheckInvariants verifies protocol coherence invariants over the final
// cache and directory state. Valid after Run.
func (m *Machine) CheckInvariants() error { return m.m.CheckInvariants() }
