package coup

import (
	"fmt"

	"repro/internal/sim"
)

// Option configures a machine being built by NewMachine or Run. Options
// are applied in order; setting the same knob twice with different values
// is an error (ErrConflictingOptions) rather than a silent last-wins, so
// composed option lists fail loudly.
type Option func(*builder) error

// builder accumulates options on top of the Table 1 defaults.
type builder struct {
	cfg  sim.Config
	wp   WorkloadParams
	seen map[string]any
}

func newBuilder(opts []Option) (*builder, error) {
	b := &builder{
		cfg:  sim.DefaultConfig(64, sim.MEUSI),
		seen: map[string]any{},
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(b); err != nil {
			return nil, err
		}
	}
	if err := b.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("coup: %w: %v", ErrInvalidOption, err)
	}
	return b, nil
}

// set records a knob assignment, rejecting a second assignment with a
// different value.
func (b *builder) set(key string, v any) error {
	if old, dup := b.seen[key]; dup && old != v {
		return fmt.Errorf("coup: %w: %s set to %v and then %v", ErrConflictingOptions, key, old, v)
	}
	b.seen[key] = v
	return nil
}

func positive(key string, n int) error {
	if n < 1 {
		return fmt.Errorf("coup: %w: %s must be >= 1, got %d", ErrInvalidOption, key, n)
	}
	return nil
}

func powerOfTwo(key string, n int) error {
	if err := positive(key, n); err != nil {
		return err
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("coup: %w: %s must be a power of two, got %d", ErrInvalidOption, key, n)
	}
	return nil
}

// WithProtocol selects the coherence protocol by name
// (case-insensitive). The default is "MEUSI", the full COUP protocol.
func WithProtocol(name string) Option {
	return func(b *builder) error {
		id, ok := sim.ProtocolByName(name)
		if !ok {
			return unknownNameError(ErrUnknownProtocol, name, ProtocolNames())
		}
		if err := b.set("protocol", id.String()); err != nil {
			return err
		}
		b.cfg.Protocol = id
		return nil
	}
}

// WithCores sets the total simulated core count (the paper sweeps 1–128;
// any count ≥ 1 up to 64 chips' worth is accepted, powers of two not
// required — the paper itself measures 96). The directories track sharers
// in 64-bit vectors, one bit per chip, so a machine has at most 64 chips:
// 4096 cores at 64 cores per chip.
func WithCores(n int) Option {
	return func(b *builder) error {
		if err := positive("cores", n); err != nil {
			return err
		}
		if err := b.set("cores", n); err != nil {
			return err
		}
		b.cfg.Cores = n
		return nil
	}
}

// WithCoresPerChip sets the cores per processor chip (Table 1: 16). Must
// be a power of two of at most 64: each chip's L3 directory tracks its
// cores in a 64-bit sharer vector. With at most 64 chips, the largest
// machine is 64 × 64 = 4096 cores.
func WithCoresPerChip(n int) Option {
	return func(b *builder) error {
		if err := powerOfTwo("cores per chip", n); err != nil {
			return err
		}
		if err := b.set("cores per chip", n); err != nil {
			return err
		}
		b.cfg.CoresPerChip = n
		return nil
	}
}

// WithSeed sets the machine seed driving workload RNGs and the
// non-determinism injection used for confidence intervals.
func WithSeed(seed uint64) Option {
	return func(b *builder) error {
		if err := b.set("seed", seed); err != nil {
			return err
		}
		b.cfg.Seed = seed
		return nil
	}
}

// WithJitter sets the maximum per-miss random latency perturbation in
// cycles (Alameldeen-Wood non-determinism injection; 0 disables it).
func WithJitter(cycles uint64) Option {
	return func(b *builder) error {
		if err := b.set("jitter", cycles); err != nil {
			return err
		}
		b.cfg.Jitter = cycles
		return nil
	}
}

// WithL1 sets the per-core L1D geometry (Table 1: 32 KB, 8-way).
func WithL1(sizeBytes, ways int) Option {
	return cacheOption("L1", sizeBytes, ways, func(cfg *sim.Config) (*int, *int) { return &cfg.L1Size, &cfg.L1Ways })
}

// WithL2 sets the per-core private L2 geometry (Table 1: 256 KB, 8-way).
func WithL2(sizeBytes, ways int) Option {
	return cacheOption("L2", sizeBytes, ways, func(cfg *sim.Config) (*int, *int) { return &cfg.L2Size, &cfg.L2Ways })
}

func cacheOption(level string, sizeBytes, ways int, fields func(*sim.Config) (*int, *int)) Option {
	return func(b *builder) error {
		if err := positive(level+" ways", ways); err != nil {
			return err
		}
		if sizeBytes < 64*ways {
			return fmt.Errorf("coup: %w: %s size %dB below one line per way", ErrInvalidOption, level, sizeBytes)
		}
		if err := b.set(level, [2]int{sizeBytes, ways}); err != nil {
			return err
		}
		sz, w := fields(&b.cfg)
		*sz, *w = sizeBytes, ways
		return nil
	}
}

// WithL3PerChip sets the shared L3 capacity per processor chip in bytes
// (Table 1: 32 MB). Associativity stays at the Table 1 default.
func WithL3PerChip(bytes int) Option {
	return func(b *builder) error {
		if bytes < 64*b.cfg.L3Ways {
			return fmt.Errorf("coup: %w: L3 per chip %dB too small", ErrInvalidOption, bytes)
		}
		if err := b.set("L3 per chip", bytes); err != nil {
			return err
		}
		b.cfg.L3Size = bytes
		return nil
	}
}

// WithL4PerChip sets the L4 capacity per memory chip in bytes (Table 1:
// 128 MB).
func WithL4PerChip(bytes int) Option {
	return func(b *builder) error {
		if bytes < 64*b.cfg.L4Ways {
			return fmt.Errorf("coup: %w: L4 per chip %dB too small", ErrInvalidOption, bytes)
		}
		if err := b.set("L4 per chip", bytes); err != nil {
			return err
		}
		b.cfg.L4Size = bytes
		return nil
	}
}

// WithL3Banks sets the L3 bank count per chip (Table 1: 8). Must be a
// power of two.
func WithL3Banks(n int) Option {
	return func(b *builder) error {
		if err := powerOfTwo("L3 banks", n); err != nil {
			return err
		}
		if err := b.set("L3 banks", n); err != nil {
			return err
		}
		b.cfg.L3Banks = n
		return nil
	}
}

// WithL4Banks sets the L4 bank count per chip (Table 1: 8). Must be a
// power of two.
func WithL4Banks(n int) Option {
	return func(b *builder) error {
		if err := powerOfTwo("L4 banks", n); err != nil {
			return err
		}
		if err := b.set("L4 banks", n); err != nil {
			return err
		}
		b.cfg.L4Banks = n
		return nil
	}
}

// WithMemChannels sets the DDR3 channel count per memory chip (Table 1:
// 4). Must be a power of two.
func WithMemChannels(n int) Option {
	return func(b *builder) error {
		if err := powerOfTwo("memory channels", n); err != nil {
			return err
		}
		if err := b.set("memory channels", n); err != nil {
			return err
		}
		b.cfg.MemChannels = n
		return nil
	}
}

// WithFlatReductions disables hierarchical reductions (Sec 3.2 ablation):
// the L4 collects one partial per core instead of one per chip.
func WithFlatReductions(flat bool) Option {
	return func(b *builder) error {
		if err := b.set("flat reductions", flat); err != nil {
			return err
		}
		b.cfg.FlatReductions = flat
		return nil
	}
}

// WithReductionALU sets the reduction unit's throughput and latency
// (Sec 5.1: the default 2-stage pipelined 256-bit ALU reduces one line
// every 2 cycles with 3-cycle latency; Sec 5.5 compares an unpipelined
// 64-bit ALU at one line per 16 cycles).
func WithReductionALU(cyclesPerLine, latency uint64) Option {
	return func(b *builder) error {
		if cyclesPerLine < 1 {
			return fmt.Errorf("coup: %w: reduction cycles/line must be >= 1", ErrInvalidOption)
		}
		if err := b.set("reduction ALU", [2]uint64{cyclesPerLine, latency}); err != nil {
			return err
		}
		b.cfg.ReduceCyclesPerLine = cyclesPerLine
		b.cfg.ReduceLatency = latency
		return nil
	}
}

// WithWorkloadParams sets the size and shape parameters handed to the
// workload factory when Run builds the workload by name. It has no effect
// on NewMachine.
func WithWorkloadParams(p WorkloadParams) Option {
	return func(b *builder) error {
		if err := b.set("workload params", p); err != nil {
			return err
		}
		b.wp = p
		return nil
	}
}
