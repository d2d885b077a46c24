package workloads

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/sim"
)

// HistMode selects how hist updates the shared histogram (Sec 5.3).
type HistMode uint8

const (
	// HistShared updates one shared histogram with commutative adds (COUP)
	// or atomic fetch-and-add (MESI baseline) — the OpenCV/TBB-style
	// implementation.
	HistShared HistMode = iota
	// HistPrivCore gives every thread a private histogram copy and reduces
	// them after the loop (core-level privatization, TBB reductions).
	HistPrivCore
	// HistPrivSocket gives every processor chip one histogram copy updated
	// with atomics by that chip's threads, then reduces per-socket copies.
	HistPrivSocket
)

func (m HistMode) String() string {
	switch m {
	case HistShared:
		return "shared"
	case HistPrivCore:
		return "priv-core"
	case HistPrivSocket:
		return "priv-socket"
	}
	return "?"
}

// Hist is the parallel histogramming benchmark: it buckets Pixels 16-bit
// input values into Bins counters. It reproduces the workload of Fig 2,
// Fig 10a, Fig 11a and Fig 12.
type Hist struct {
	Pixels int // number of input values
	Bins   int
	Skew   float64 // input value skew (photographs are skewed)
	Mode   HistMode
	Seed   uint64

	px []uint16 // generated input

	inputAddr uint64 // packed input, 4 values per 64-bit word
	histAddr  uint64 // global histogram, uint32 per bin
	privAddr  uint64 // per-thread or per-socket copies
	privStep  uint64 // bytes between copies
	nCopies   int
}

// NewHist builds a histogram workload with rounded, deterministic input.
func NewHist(pixels, bins int, mode HistMode, seed uint64) *Hist {
	return &Hist{Pixels: pixels, Bins: bins, Skew: 0.5, Mode: mode, Seed: seed}
}

// Name implements Workload.
func (h *Hist) Name() string { return "hist-" + h.Mode.String() }

// Setup implements Workload.
func (h *Hist) Setup(m *sim.Machine) {
	// 16-bit input values so bin counts up to 32K (Fig 2's sweep) stay
	// meaningfully populated.
	px8 := gen.Image(h.Pixels*2, h.Skew, h.Seed)
	h.px = make([]uint16, h.Pixels)
	for i := range h.px {
		h.px[i] = uint16(px8[2*i]) | uint16(px8[2*i+1])<<8
	}
	h.inputAddr = m.Alloc(uint64(h.Pixels)*2, 64)
	for i := 0; i < h.Pixels; i += 4 {
		var w uint64
		for k := 0; k < 4 && i+k < h.Pixels; k++ {
			w |= uint64(h.px[i+k]) << uint(16*k)
		}
		m.WriteWord64(h.inputAddr+uint64(i)*2, w)
	}
	// The pixels are input no kernel writes, so their loads post.
	m.Freeze(h.inputAddr, uint64(h.Pixels)*2)
	h.histAddr = m.Alloc(padLines(uint64(h.Bins)*4), 64)

	cfg := m.Config()
	switch h.Mode {
	case HistPrivCore:
		h.nCopies = cfg.Cores
	case HistPrivSocket:
		h.nCopies = cfg.Chips()
	default:
		h.nCopies = 0
	}
	if h.nCopies > 0 {
		h.privStep = padLines(uint64(h.Bins) * 4)
		h.privAddr = m.Alloc(h.privStep*uint64(h.nCopies), 64)
	}
}

func (h *Hist) bin(p uint16) int { return int(uint32(p) * uint32(h.Bins) >> 16) }

// Kernel implements Workload.
func (h *Hist) Kernel(c *sim.Ctx) {
	lo, hi := chunk(h.Pixels, c.Tid(), c.NThreads())

	var target uint64
	switch h.Mode {
	case HistShared:
		target = h.histAddr
	case HistPrivCore:
		target = h.privAddr + uint64(c.Tid())*h.privStep
	case HistPrivSocket:
		target = h.privAddr + uint64(c.Chip())*h.privStep
	}

	for i := lo; i < hi; i++ {
		if i%4 == 0 || i == lo {
			c.Load64(h.inputAddr + uint64(i&^3)*2) // packed input word
		}
		b := h.bin(h.px[i])
		// Bin computation, bounds checks and parallel-loop machinery: the
		// paper's hist executes ~100 instructions per commutative update
		// (commutative ops are 1.0% of instructions, Sec 5.2).
		c.Work(95)
		switch h.Mode {
		case HistPrivCore:
			// Thread-private: plain load+add+store, no atomicity needed.
			v := c.Load32(target + uint64(b)*4)
			c.Store32(target+uint64(b)*4, v+1)
		default:
			// Shared or socket-shared: commutative add (atomics on MESI).
			c.CommAdd32(target+uint64(b)*4, 1)
		}
	}

	if h.Mode == HistShared {
		return
	}

	// Reduction phase: every thread reduces a contiguous bin range across
	// all copies into the global histogram (the parallel reduction tree's
	// final combine, which dominates at high bin counts, Sec 5.3).
	c.Barrier()
	blo, bhi := chunk(h.Bins, c.Tid(), c.NThreads())
	for b := blo; b < bhi; b++ {
		var sum uint32
		for copyi := 0; copyi < h.nCopies; copyi++ {
			sum += c.Load32(h.privAddr + uint64(copyi)*h.privStep + uint64(b)*4)
		}
		c.Work(4)
		c.Store32(h.histAddr+uint64(b)*4, sum)
	}
}

// Validate implements Workload.
func (h *Hist) Validate(m *sim.Machine) error {
	ref := make([]uint32, h.Bins)
	for _, p := range h.px {
		ref[h.bin(p)]++
	}
	for b := 0; b < h.Bins; b++ {
		if got := m.ReadWord32(h.histAddr + uint64(b)*4); got != ref[b] {
			return fmt.Errorf("bin %d: got %d, want %d", b, got, ref[b])
		}
	}
	return nil
}

func histFactory(mode HistMode) Factory {
	return func(p Params) (Workload, error) {
		pixels, err := p.def(p.Size, 100_000)
		if err != nil {
			return nil, err
		}
		bins, err := p.def(p.Bins, 512)
		if err != nil {
			return nil, err
		}
		return NewHist(pixels, bins, mode, p.seed(7)), nil
	}
}

func init() {
	mustRegister("hist",
		"parallel histogram, one shared copy (Fig 2, Fig 10a; Size=pixels, Bins, Seed)",
		histFactory(HistShared))
	mustRegister("hist-priv-core",
		"histogram with per-thread private copies (Sec 5.3 core-level privatization; Size=pixels, Bins, Seed)",
		histFactory(HistPrivCore))
	mustRegister("hist-priv-socket",
		"histogram with per-socket copies (Sec 5.3 socket-level privatization; Size=pixels, Bins, Seed)",
		histFactory(HistPrivSocket))
}
