package coup

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// Run builds the named workload (WithWorkloadParams sets its size knobs),
// builds a machine from the remaining options, executes the workload and
// validates its final memory image plus the protocol's coherence
// invariants. The returned Stats are valid even when validation fails, so
// callers can report partial results alongside the error.
func Run(workload string, opts ...Option) (Stats, error) {
	return runIn(nil, workload, opts)
}

// runIn is Run drawing the machine from arena (nil means a fresh machine);
// the sweep workers pass their per-worker arenas through here.
func runIn(arena *sim.Arena, workload string, opts []Option) (Stats, error) {
	info, err := LookupWorkload(workload)
	if err != nil {
		return Stats{}, err
	}
	b, err := newBuilder(opts)
	if err != nil {
		return Stats{}, err
	}
	w, err := info.New(b.wp)
	if err != nil {
		// Bad factory parameters are an option error (they arrived via
		// WithWorkloadParams), so callers can errors.Is them as usage.
		return Stats{}, fmt.Errorf("coup: workload %q: %w: %w", info.Name, ErrInvalidOption, err)
	}
	return runOn(arena, w, info.Name, b)
}

// runWorkloadIn runs a pre-built workload instance (a RunSpec.Make
// spec) on a machine from arena.
func runWorkloadIn(arena *sim.Arena, w Workload, opts []Option) (Stats, error) {
	b, err := newBuilder(opts)
	if err != nil {
		return Stats{}, err
	}
	return runOn(arena, w, w.Name(), b)
}

func runOn(arena *sim.Arena, w Workload, name string, b *builder) (Stats, error) {
	st, err := workloads.RunIn(arena, w, b.cfg)
	out := statsFrom(st, b.cfg, name)
	if err != nil {
		return out, fmt.Errorf("coup: %w", err)
	}
	return out, nil
}
