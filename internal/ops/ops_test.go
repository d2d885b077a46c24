package ops

import (
	"math"
	"testing"
	"testing/quick"
)

var updateTypes = []Type{AddI16, AddI32, AddI64, AddF32, AddF64, And64, Or64, Xor64}

// exactTypes are the update types whose Apply is exactly associative
// (bitwise and modular integer arithmetic). FP addition is commutative but
// only approximately associative; the paper supports it anyway (Sec 4.1).
var exactTypes = []Type{AddI16, AddI32, AddI64, And64, Or64, Xor64}

// identityLine returns a line holding t's identity element in every word,
// as a partial-update buffer starts on a transition into U (Sec 3.1.2).
func identityLine(t Type) Line {
	var l Line
	for i := range l {
		l[i] = t.Identity()
	}
	return l
}

// reduceAll folds parts into base in order, as a reduction unit does on a
// full reduction, and returns the result.
func reduceAll(t Type, base Line, parts ...*Line) Line {
	for _, p := range parts {
		Reduce(t, &base, p)
	}
	return base
}

func TestTypeStringsAndValidity(t *testing.T) {
	seen := map[string]bool{}
	for ty := Type(0); ty < NumTypes; ty++ {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("duplicate or empty name %q", s)
		}
		seen[s] = true
	}
	if Read.IsUpdate() {
		t.Fatal("Read is not an update")
	}
	for _, ty := range updateTypes {
		if !ty.IsUpdate() {
			t.Fatalf("%v must be an update type", ty)
		}
	}
}

func TestWidths(t *testing.T) {
	want := map[Type]int{
		Read: 0, AddI16: 2, AddI32: 4, AddI64: 8,
		AddF32: 4, AddF64: 8, And64: 8, Or64: 8, Xor64: 8,
	}
	for ty, w := range want {
		if got := ty.Width(); got != w {
			t.Errorf("%v.Width() = %d, want %d", ty, got, w)
		}
	}
}

func TestCommutativity(t *testing.T) {
	for _, ty := range updateTypes {
		ty := ty
		f := func(a, b uint64) bool {
			return Apply(ty, a, b) == Apply(ty, b, a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not commutative: %v", ty, err)
		}
	}
}

func TestAssociativityExact(t *testing.T) {
	for _, ty := range exactTypes {
		ty := ty
		f := func(a, b, c uint64) bool {
			return Apply(ty, Apply(ty, a, b), c) == Apply(ty, a, Apply(ty, b, c))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not associative: %v", ty, err)
		}
	}
}

// TestIdentityExact: applying the identity leaves any word's bit pattern
// unchanged — the property whole-line identity initialization relies on.
// For FP the identity +0.0 preserves everything except -0.0 lanes (IEEE-754
// canonicalizes -0.0 + +0.0 to +0.0), so FP lanes are tested over
// non-negative-zero values.
func TestIdentityExact(t *testing.T) {
	for _, ty := range exactTypes {
		ty := ty
		id := ty.Identity()
		f := func(a uint64) bool {
			return Apply(ty, id, a) == a && Apply(ty, a, id) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v identity broken: %v", ty, err)
		}
	}
}

func TestIdentityFP(t *testing.T) {
	f64 := func(x float64) bool {
		if math.Signbit(x) && x == 0 { // skip -0.0
			return true
		}
		a := math.Float64bits(x)
		return Apply(AddF64, AddF64.Identity(), a) == a
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Errorf("AddF64 identity: %v", err)
	}
	f32 := func(x, y float32) bool {
		if (math.Signbit(float64(x)) && x == 0) || (math.Signbit(float64(y)) && y == 0) {
			return true
		}
		a := uint64(math.Float32bits(y))<<32 | uint64(math.Float32bits(x))
		return Apply(AddF32, AddF32.Identity(), a) == a
	}
	if err := quick.Check(f32, nil); err != nil {
		t.Errorf("AddF32 identity: %v", err)
	}
}

func TestApplyReadIsNoop(t *testing.T) {
	if Apply(Read, 123, 456) != 456 {
		t.Fatal("Read must not modify the base value")
	}
}

func TestLaneIsolation16(t *testing.T) {
	// Adding 1 to a lane that holds 0xFFFF must wrap within the lane and
	// not carry into the neighbor.
	a := uint64(0x0000_0000_0000_FFFF)
	got := Apply(AddI16, a, 1)
	if got != 0 {
		t.Fatalf("lane 0 wrap: got %#x, want 0", got)
	}
	// Each lane adds independently.
	x := uint64(0x0001_0002_0003_0004)
	y := uint64(0x0010_0020_0030_0040)
	want := uint64(0x0011_0022_0033_0044)
	if got := Apply(AddI16, x, y); got != want {
		t.Fatalf("lane add: got %#x, want %#x", got, want)
	}
}

func TestLaneIsolation32(t *testing.T) {
	a := uint64(0x0000_0000_FFFF_FFFF)
	if got := Apply(AddI32, a, 1); got != 0 {
		t.Fatalf("lane 0 wrap: got %#x, want 0", got)
	}
	x := uint64(0x0000_0001_0000_0002)
	y := uint64(0x0000_0010_0000_0020)
	want := uint64(0x0000_0011_0000_0022)
	if got := Apply(AddI32, x, y); got != want {
		t.Fatalf("lane add: got %#x, want %#x", got, want)
	}
}

func TestApplyAtSubword(t *testing.T) {
	var w uint64
	w = ApplyAt(AddI16, w, 2, 7) // lane 1
	if w != 7<<16 {
		t.Fatalf("ApplyAt lane1: got %#x", w)
	}
	w = ApplyAt(AddI16, w, 2, 0xFFFF) // wraps lane 1 to 6
	if w != 6<<16 {
		t.Fatalf("ApplyAt wrap: got %#x", w)
	}
	w = ApplyAt(AddI32, 0, 4, 0xDEAD)
	if w != 0xDEAD<<32 {
		t.Fatalf("ApplyAt 32-bit hi lane: got %#x", w)
	}
	w = ApplyAt(AddF32, 0, 0, uint64(math.Float32bits(1.5)))
	if math.Float32frombits(uint32(w)) != 1.5 {
		t.Fatalf("ApplyAt f32: got %v", math.Float32frombits(uint32(w)))
	}
}

func TestApplyAtMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned update")
		}
	}()
	ApplyAt(AddI32, 0, 2, 1)
}

// TestReduceEqualsDirectApplication is the core COUP correctness property:
// buffering updates in per-cache partial lines initialized to the identity
// and reducing them later must equal applying every update directly,
// regardless of how updates are partitioned across caches.
func TestReduceEqualsDirectApplication(t *testing.T) {
	for _, ty := range exactTypes {
		ty := ty
		f := func(updates []uint64, split uint8, base uint64) bool {
			var direct Line
			for i := range direct {
				direct[i] = base
			}
			nCaches := int(split%4) + 1
			parts := make([]Line, nCaches)
			for i := range parts {
				parts[i] = identityLine(ty)
			}
			// Apply each update both directly and into a partial buffer.
			for i, u := range updates {
				w := i % WordsPerLine
				direct[w] = Apply(ty, u, direct[w])
				p := &parts[i%nCaches]
				p[w] = Apply(ty, u, p[w])
			}
			// Full reduction.
			var baseLine Line
			for i := range baseLine {
				baseLine[i] = base
			}
			ptrs := make([]*Line, nCaches)
			for i := range parts {
				ptrs[i] = &parts[i]
			}
			got := reduceAll(ty, baseLine, ptrs...)
			return got == direct
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: reduce != direct: %v", ty, err)
		}
	}
}

// TestReduceOrderIrrelevant: full reductions may gather partial updates in
// any order (hierarchical vs flat, Sec 3.2) and produce the same value.
func TestReduceOrderIrrelevant(t *testing.T) {
	for _, ty := range exactTypes {
		ty := ty
		f := func(a, b, c, base uint64) bool {
			la, lb, lc := identityLine(ty), identityLine(ty), identityLine(ty)
			la[0], lb[0], lc[0] = a, b, c
			var bl Line
			bl[0] = base
			r1 := reduceAll(ty, bl, &la, &lb, &lc)
			r2 := reduceAll(ty, bl, &lc, &la, &lb)
			// Hierarchical: reduce (a,b) into an intermediate first.
			mid := identityLine(ty)
			Reduce(ty, &mid, &la)
			Reduce(ty, &mid, &lb)
			r3 := reduceAll(ty, bl, &mid, &lc)
			return r1 == r2 && r1 == r3
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: order matters: %v", ty, err)
		}
	}
}

func TestReduceIdentitySkippable(t *testing.T) {
	for _, ty := range updateTypes {
		base := Line{1, 2, 3, 4, 5, 6, 7, 8}
		if ty == AddF32 || ty == AddF64 {
			// use valid FP patterns
			for i := range base {
				base[i] = math.Float64bits(float64(i + 1))
			}
		}
		id := identityLine(ty)
		got := base
		Reduce(ty, &got, &id)
		if got != base {
			t.Errorf("%v: reducing identity line changed base: %v -> %v", ty, base, got)
		}
	}
}

func BenchmarkApplyAddI64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc = Apply(AddI64, acc, uint64(i))
	}
	_ = acc
}

func BenchmarkReduceLine(b *testing.B) {
	base := Line{}
	p := identityLine(AddI64)
	p[3] = 42
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(AddI64, &base, &p)
	}
}
