package coup

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestShardIndicesCoverExactlyOnce is the partition law: for every n,
// the n shards of a spec list cover it exactly once, in order, and the
// assignment is stable under re-enumeration.
func TestShardIndicesCoverExactlyOnce(t *testing.T) {
	const total = 13
	for n := 1; n <= total+2; n++ {
		counts := make([]int, total)
		for k := 0; k < n; k++ {
			first, err := ShardIndices(total, k, n)
			if err != nil {
				t.Fatalf("ShardIndices(%d, %d, %d): %v", total, k, n, err)
			}
			again, _ := ShardIndices(total, k, n)
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("shard %d/%d unstable under re-enumeration", k, n)
			}
			for _, i := range first {
				if i < 0 || i >= total {
					t.Fatalf("shard %d/%d owns index %d of %d specs", k, n, i, total)
				}
				counts[i]++
			}
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("n=%d: spec %d covered %d times, want exactly once", n, i, c)
			}
		}
	}
}

// TestShardIndicesGolden pins the round-robin assignment itself, so
// shard membership can never silently drift across releases: stores
// recorded by one build must stay mergeable with sweeps enumerated by
// the next.
func TestShardIndicesGolden(t *testing.T) {
	golden := map[string][]int{
		"0/3": {0, 3, 6, 9},
		"1/3": {1, 4, 7},
		"2/3": {2, 5, 8},
		"0/4": {0, 4, 8},
		"3/4": {3, 7},
		"0/1": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	for coord, want := range golden {
		var k, n int
		fmt.Sscanf(coord, "%d/%d", &k, &n)
		got, err := ShardIndices(10, k, n)
		if err != nil {
			t.Fatalf("%s: %v", coord, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shard %s: got %v, want %v (round-robin assignment drifted)", coord, got, want)
		}
	}
}

// TestShardValidation covers the typed rejection of bad coordinates.
func TestShardValidation(t *testing.T) {
	for _, bad := range [][2]int{{-1, 4}, {4, 4}, {0, 0}, {1, -2}} {
		if _, err := ShardIndices(10, bad[0], bad[1]); !errors.Is(err, ErrInvalidShard) {
			t.Errorf("ShardIndices(%d, %d): err=%v, want ErrInvalidShard", bad[0], bad[1], err)
		}
	}
}

// TestParseShard covers the "k/n" flag syntax (1-based on the command
// line, zero-based internally).
func TestParseShard(t *testing.T) {
	k, n, err := ParseShard("1/4")
	if err != nil || k != 0 || n != 4 {
		t.Errorf("ParseShard(1/4) = (%d, %d, %v), want (0, 4, nil)", k, n, err)
	}
	k, n, err = ParseShard("4/4")
	if err != nil || k != 3 || n != 4 {
		t.Errorf("ParseShard(4/4) = (%d, %d, %v), want (3, 4, nil)", k, n, err)
	}
	for _, bad := range badShards {
		if _, _, err := ParseShard(bad); !errors.Is(err, ErrInvalidShard) {
			t.Errorf("ParseShard(%q): err=%v, want ErrInvalidShard", bad, err)
		}
	}
}

var badShards = []string{"", "3", "0/4", "5/4", "a/b", "1/0", "-1/4", "1/4/2"}

// FuzzParseShard holds the shard flag syntax to its contract on any
// input: no panic; an accepted "k/n" is a valid zero-based shard that
// round-trips through the 1-based syntax; every rejection wraps
// ErrInvalidShard.
func FuzzParseShard(f *testing.F) {
	for _, s := range append([]string{"1/4", "4/4", " 2 / 3 ", "+1/2", "9223372036854775807/9223372036854775807"}, badShards...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, n, err := ParseShard(s)
		if err != nil {
			if !errors.Is(err, ErrInvalidShard) {
				t.Fatalf("ParseShard(%q): err=%v, want ErrInvalidShard", s, err)
			}
			return
		}
		if k < 0 || k >= n {
			t.Fatalf("ParseShard(%q) = (%d, %d), want 0 <= k < n", s, k, n)
		}
		back := fmt.Sprintf("%d/%d", k+1, n)
		if k2, n2, err := ParseShard(back); err != nil || k2 != k || n2 != n {
			t.Fatalf("ParseShard(%q) = (%d, %d, %v), want (%d, %d) as from %q", back, k2, n2, err, k, n, s)
		}
	})
}

// TestSpecKeyContent pins the content-hash contract: keys depend on what
// the spec runs, not how it is spelled; any knob change changes the key.
func TestSpecKeyContent(t *testing.T) {
	base := RunSpec{
		Workload: "hist",
		Options: []Option{
			WithCores(4),
			WithProtocol("MEUSI"),
			WithSeed(3),
			WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16}),
		},
	}
	k1, err := SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Same content, different spelling: reordered options, case-folded
	// names.
	respelled := RunSpec{
		Workload: "HIST",
		Options: []Option{
			WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16}),
			WithSeed(3),
			WithProtocol("meusi"),
			WithCores(4),
		},
	}
	if k2, _ := SpecKey(respelled); k2 != k1 {
		t.Errorf("respelled spec hashes differently: %s vs %s", k1, k2)
	}
	// Any knob change must change the key.
	variants := map[string]RunSpec{
		"cores": {Workload: "hist", Options: []Option{WithCores(8), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"proto": {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MESI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"seed":  {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(4), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
		"wp":    {Workload: "hist", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 32})}},
		"wl":    {Workload: "counter", Options: []Option{WithCores(4), WithProtocol("MEUSI"), WithSeed(3), WithWorkloadParams(WorkloadParams{Size: 100, Bins: 16})}},
	}
	for what, s := range variants {
		kv, err := SpecKey(s)
		if err != nil {
			t.Fatalf("%s variant: %v", what, err)
		}
		if kv == k1 {
			t.Errorf("changing %s did not change the key %s", what, k1)
		}
	}
	// Explicit keys win; Make specs without one are typed errors.
	if k, _ := SpecKey(RunSpec{Key: "custom", Make: func() (Workload, error) { return nil, nil }}); k != "custom" {
		t.Errorf("explicit key not honored: got %s", k)
	}
	if _, err := SpecKey(RunSpec{Make: func() (Workload, error) { return nil, nil }}); !errors.Is(err, ErrSpecUnkeyed) {
		t.Errorf("keyless Make spec: err=%v, want ErrSpecUnkeyed", err)
	}
}

// TestSpecKeysOrdinals pins the duplicate handling: a list measuring one
// configuration twice still gets unique keys, with stable ordinals.
func TestSpecKeysOrdinals(t *testing.T) {
	s := counterSpec(2, 1)
	keys, err := SpecKeys([]RunSpec{s, counterSpec(4, 1), s, s})
	if err != nil {
		t.Fatal(err)
	}
	if keys[0] == keys[1] {
		t.Errorf("distinct specs share key %s", keys[0])
	}
	if keys[2] != keys[0]+"#2" || keys[3] != keys[0]+"#3" {
		t.Errorf("duplicate ordinals wrong: %v", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate key %s in %v", k, keys)
		}
		seen[k] = true
	}
}
