package coup

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors returned by the registries and the machine builder.
// Match them with errors.Is; the wrapped messages carry specifics (which
// name, which option, what is registered).
var (
	// ErrUnknownProtocol is returned by protocol lookups for names no
	// protocol answers to.
	ErrUnknownProtocol = errors.New("unknown protocol")
	// ErrUnknownWorkload is returned by workload lookups for names no
	// registered workload answers to.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrDuplicateName is returned when registering a workload under a
	// name that is already taken (names are compared case-insensitively).
	ErrDuplicateName = errors.New("name already registered")
	// ErrInvalidOption is returned by NewMachine and Run when an option's
	// value is out of range (zero cores, non-power-of-two bank counts, ...).
	ErrInvalidOption = errors.New("invalid option")
	// ErrConflictingOptions is returned when the same knob is set twice
	// with different values in one option list.
	ErrConflictingOptions = errors.New("conflicting options")
	// ErrInvalidParallelism is returned by NewSweeper and Sweep for
	// WithParallelism(n) with n < 1. It wraps ErrInvalidOption, so callers
	// matching the broader sentinel keep working.
	ErrInvalidParallelism = fmt.Errorf("%w: invalid parallelism", ErrInvalidOption)
	// ErrInvalidShard is returned by ShardIndices/ParseShard for shard
	// coordinates outside 0 <= k < n (or unparseable "k/n" syntax).
	ErrInvalidShard = errors.New("invalid shard")
	// ErrSpecUnkeyed is returned by SpecKey for a RunSpec whose identity
	// cannot be derived (a Make closure with no explicit Key); such specs
	// cannot participate in store-backed sweeps.
	ErrSpecUnkeyed = errors.New("spec has no durable key")
	// ErrStoreMismatch is returned when opening or merging a result store
	// whose header (namespace, fingerprint, shard coordinates) does not
	// match what the job expects — results from a different grid or
	// parameterization never silently mix.
	ErrStoreMismatch = errors.New("result store mismatch")
)

// unknownNameError formats "unknown X "name" (have: a, b, c)" wrapping the
// given sentinel.
func unknownNameError(sentinel error, name string, have []string) error {
	return fmt.Errorf("coup: %w %q (have: %s)", sentinel, name, strings.Join(have, ", "))
}
