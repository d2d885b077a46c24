// Package ops defines the commutative-update operations COUP supports.
//
// Formally, COUP applies to any commutative semigroup (G, ∘); supporting
// multi-word cache blocks additionally requires an identity element, i.e. a
// commutative monoid (paper, Sec 3.2). This package implements the eight
// operation/data-type combinations evaluated in the paper (Sec 5.1):
//
//   - addition of 16-, 32- and 64-bit integers,
//   - addition of 32- and 64-bit floating-point values,
//   - AND, OR and XOR bitwise logical operations on 64-bit words,
//
// plus Read, the degenerate "commutative operation" used by the generalized
// non-exclusive state N (Sec 3.4), under which reads are just another
// operation type.
//
// All operations are expressed over raw 64-bit memory words so that cache
// lines can be treated uniformly as [8]uint64 regardless of the data type
// stored in them. Applying an operation to a word holding the identity
// element reproduces the operand's bit pattern exactly, which is the
// property that lets COUP initialize whole lines to the identity element on
// a transition into U even when the line holds words of other types.
package ops

import (
	"fmt"
	"math"
)

// Type identifies a commutative-update operation type. The directory and
// private caches track, for each line in the non-exclusive state, the single
// Type all current sharers operate under; requests of a different Type force
// a full reduction and a type switch (Sec 3.2).
type Type uint8

// The supported non-exclusive operation types. Read is the read-only type;
// the rest are the eight commutative-update types from the paper. The
// paper's implementation encodes these in four bits per directory line
// (read-only or one of eight commutative-update types); NumTypes fits that
// budget.
const (
	Read Type = iota
	AddI16
	AddI32
	AddI64
	AddF32
	AddF64
	And64
	Or64
	Xor64

	NumTypes = 9 // including Read
)

// String returns the mnemonic used in tables and traces.
func (t Type) String() string {
	switch t {
	case Read:
		return "read"
	case AddI16:
		return "add16"
	case AddI32:
		return "add32"
	case AddI64:
		return "add64"
	case AddF32:
		return "addf32"
	case AddF64:
		return "addf64"
	case And64:
		return "and64"
	case Or64:
		return "or64"
	case Xor64:
		return "xor64"
	}
	return fmt.Sprintf("optype(%d)", uint8(t))
}

// IsUpdate reports whether t is a commutative-update type (anything but
// Read).
func (t Type) IsUpdate() bool { return t != Read }

// Width returns the operand width in bytes for t. Read has no operand and
// returns 0.
func (t Type) Width() int {
	switch t {
	case AddI16:
		return 2
	case AddI32, AddF32:
		return 4
	case AddI64, AddF64, And64, Or64, Xor64:
		return 8
	}
	return 0
}

// Identity returns the identity element of t as a 64-bit word pattern:
// applying t with this operand to any word leaves the word unchanged, and
// applying t with any operand to this word reproduces the operand.
//
// For the sub-word types (AddI16, AddI32, AddF32) the identity word packs
// the per-element identity into every lane, so a full 64-bit word of a line
// initialized with Identity is simultaneously the identity for every lane.
func (t Type) Identity() uint64 {
	switch t {
	case AddI16, AddI32, AddI64, Or64, Xor64:
		return 0
	case AddF32:
		// +0.0 in both 32-bit lanes. x + (+0.0) == x for every float32
		// except it canonicalizes -0.0 to +0.0; see monoid notes below.
		return 0
	case AddF64:
		return 0
	case And64:
		return ^uint64(0)
	case Read:
		return 0
	}
	return 0
}

// Apply combines two 64-bit word values under operation type t, treating
// each word as the packed lanes appropriate for t's width. Apply is
// commutative and associative for every t (for the FP types, associativity
// holds up to rounding; the paper explicitly supports FP addition despite
// non-associativity because common parallel reductions are already
// non-deterministic, Sec 4.1).
//
// Apply(Read, a, b) returns b unchanged: reads contribute no update.
func Apply(t Type, a, b uint64) uint64 {
	switch t {
	case Read:
		return b
	case AddI16:
		return addLanes16(a, b)
	case AddI32:
		return addLanes32(a, b)
	case AddI64:
		return a + b
	case AddF32:
		return addLanesF32(a, b)
	case AddF64:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case And64:
		return a & b
	case Or64:
		return a | b
	case Xor64:
		return a ^ b
	}
	panic(fmt.Sprintf("ops: Apply on invalid type %d", uint8(t)))
}

// addLanes16 adds four independent 16-bit lanes without carry between lanes.
func addLanes16(a, b uint64) uint64 {
	const mask = 0xFFFF
	var r uint64
	for i := 0; i < 4; i++ {
		sh := uint(i * 16)
		r |= (((a >> sh) + (b >> sh)) & mask) << sh
	}
	return r
}

// addLanes32 adds two independent 32-bit lanes without carry between lanes.
func addLanes32(a, b uint64) uint64 {
	const mask = 0xFFFFFFFF
	lo := ((a & mask) + (b & mask)) & mask
	hi := (((a >> 32) + (b >> 32)) & mask) << 32
	return hi | lo
}

// addLanesF32 adds two independent float32 lanes.
func addLanesF32(a, b uint64) uint64 {
	lo := math.Float32bits(math.Float32frombits(uint32(a)) + math.Float32frombits(uint32(b)))
	hi := math.Float32bits(math.Float32frombits(uint32(a>>32)) + math.Float32frombits(uint32(b>>32)))
	return uint64(hi)<<32 | uint64(lo)
}

// ApplyAt applies operand v of type t to the wordIdx-th word of the line,
// at the byte offset off within that word. Sub-word operands (16- and
// 32-bit adds) only disturb their own lane; 64-bit operands require off==0.
// It returns the new word value.
//
// This models the core-side update path: the core atomically reads the word
// from its cache, modifies it, and stores the result (Sec 3.1.2).
func ApplyAt(t Type, word uint64, off uint, v uint64) uint64 {
	w := t.Width()
	if w == 0 {
		return word
	}
	// Width is always a power of two here (2, 4 or 8), so alignment is a
	// mask test — this sits on the simulator's hottest per-update path.
	if off&uint(w-1) != 0 || int(off)+w > 8 {
		panic(fmt.Sprintf("ops: misaligned %s update at offset %d", t, off))
	}
	sh := off * 8
	switch w {
	case 2:
		lane := (word >> sh) & 0xFFFF
		lane = (lane + v) & 0xFFFF
		return word&^(uint64(0xFFFF)<<sh) | lane<<sh
	case 4:
		lane := (word >> sh) & 0xFFFFFFFF
		switch t {
		case AddI32:
			lane = (lane + v) & 0xFFFFFFFF
		case AddF32:
			lane = uint64(math.Float32bits(math.Float32frombits(uint32(lane)) + math.Float32frombits(uint32(v))))
		}
		return word&^(uint64(0xFFFFFFFF)<<sh) | lane<<sh
	default:
		return Apply(t, word, v)
	}
}

// WordsPerLine is the number of 64-bit words per 64-byte cache line.
const WordsPerLine = 8

// LineBytes is the cache line size used throughout (Table 1: 64 B lines).
const LineBytes = 64

// Line is the raw contents of one cache line as eight 64-bit words.
type Line [WordsPerLine]uint64

// Reduce folds the partial-update line p into the base line dst under
// operation type t, element-wise across every word. Words of p that still
// hold the identity element leave the corresponding dst word bit-identical,
// which is why whole-line reductions are safe even for words holding
// unrelated data (Sec 3.2, "larger cache blocks").
func Reduce(t Type, dst *Line, p *Line) {
	for i := range dst {
		dst[i] = Apply(t, p[i], dst[i])
	}
}
