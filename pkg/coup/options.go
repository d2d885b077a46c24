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
// 1024 cores at the Table 1 machine's 16 cores per chip.
func WithCores(n int) Option {
	return func(b *builder) error {
		if n < 1 {
			return fmt.Errorf("coup: %w: cores must be >= 1, got %d", ErrInvalidOption, n)
		}
		if err := b.set("cores", n); err != nil {
			return err
		}
		b.cfg.Cores = n
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
