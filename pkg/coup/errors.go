package coup

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors returned by the name lookups and the machine builder.
// Match them with errors.Is; the wrapped messages carry specifics (which
// name, which option, which names exist).
var (
	// ErrUnknownProtocol is returned by protocol lookups for names no
	// protocol answers to.
	ErrUnknownProtocol = errors.New("unknown protocol")
	// ErrUnknownWorkload is returned by workload lookups for names no
	// workload answers to.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrInvalidOption is returned by NewMachine and Run when an option's
	// value is out of range (zero cores, more than 64 chips, ...).
	ErrInvalidOption = errors.New("invalid option")
	// ErrConflictingOptions is returned when the same knob is set twice
	// with different values in one option list.
	ErrConflictingOptions = errors.New("conflicting options")
	// ErrInvalidParallelism is returned by NewSweeper and Sweep for
	// WithParallelism(n) with n < 1. It wraps ErrInvalidOption, so callers
	// matching the broader sentinel keep working.
	ErrInvalidParallelism = fmt.Errorf("%w: invalid parallelism", ErrInvalidOption)
)

// unknownNameError formats "unknown X "name" (have: a, b, c)" wrapping the
// given sentinel.
func unknownNameError(sentinel error, name string, have []string) error {
	return fmt.Errorf("coup: %w %q (have: %s)", sentinel, name, strings.Join(have, ", "))
}
