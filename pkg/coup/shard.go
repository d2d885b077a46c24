package coup

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// ShardIndices returns the indices of the specs (of the given total
// count) that shard k of n owns, in increasing order, under the stable
// round-robin partition: spec i belongs to shard i mod n (k is
// zero-based, 0 <= k < n). Round-robin — rather than contiguous blocks —
// is the contract because experiment grids enumerate related points
// consecutively (a core sweep, the reps of one point), so striding
// balances work across shards even when cost grows along the list.
//
// The assignment is a pure function of list position: every (k, n)
// partition of the same spec list covers it exactly once, re-enumeration
// is stable, and the mapping never changes across releases
// (TestShardIndicesGolden pins it). Anything downstream — result-store
// keys, merge coverage — may therefore assume shard membership is
// reproducible from the spec list alone.
func ShardIndices(total, k, n int) ([]int, error) {
	if err := validShard(k, n); err != nil {
		return nil, err
	}
	var out []int
	for i := k; i < total; i += n {
		out = append(out, i)
	}
	return out, nil
}

func validShard(k, n int) error {
	if n < 1 || k < 0 || k >= n {
		return fmt.Errorf("coup: %w: shard %d of %d (need 0 <= k < n)", ErrInvalidShard, k, n)
	}
	return nil
}

// ParseShard parses the command-line shard syntax "k/n" with k counted
// from 1 (so "-shard 1/4" … "-shard 4/4" name the four quarters) and
// returns the zero-based shard index and the shard count.
func ParseShard(s string) (k, n int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("coup: %w: %q (want k/n with 1 <= k <= n)", ErrInvalidShard, s)
	}
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return bad()
	}
	k1, err1 := strconv.Atoi(strings.TrimSpace(a))
	n, err2 := strconv.Atoi(strings.TrimSpace(b))
	if err1 != nil || err2 != nil || k1 < 1 || n < 1 || k1 > n {
		return bad()
	}
	return k1 - 1, n, nil
}

// SpecKey returns the spec's durable identity for result stores and
// merge coverage: an explicit RunSpec.Key when set, otherwise a content
// hash over everything that determines the run's results — the resolved
// workload name, the protocol name, the full machine configuration and
// the workload parameters. Two specs that would produce identical stats
// hash identically no matter how their option lists are spelled, and
// any change to a knob changes the key, so a store can never serve
// stale results to a reconfigured sweep.
//
// Specs built around a Make closure have no hashable content; they need
// an explicit Key to participate in store-backed sweeps (ErrSpecUnkeyed
// otherwise). Plain Sweep/Run never needs keys.
func SpecKey(s RunSpec) (string, error) {
	if s.Key != "" {
		return s.Key, nil
	}
	if s.Make != nil {
		return "", fmt.Errorf("coup: %w: RunSpec with a Make closure needs an explicit Key", ErrSpecUnkeyed)
	}
	if s.Workload == "" {
		return "", fmt.Errorf("coup: %w: RunSpec needs Workload or Make", ErrInvalidOption)
	}
	info, err := LookupWorkload(s.Workload)
	if err != nil {
		return "", err
	}
	b, err := newBuilder(s.Options)
	if err != nil {
		return "", err
	}
	// Hash the protocol by name, not numeric id, so keys do not depend on
	// the protocol table's order.
	cfg := b.cfg
	proto := cfg.Protocol.String()
	cfg.Protocol = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%+v|%+v", info.Name, proto, cfg, b.wp)
	return fmt.Sprintf("%s-%016x", info.Name, h.Sum64()), nil
}

// SpecKeys returns one key per spec (SpecKey), disambiguating repeats:
// the j-th occurrence of the same content (j >= 2) gets a "#j" ordinal
// suffix, so a list that deliberately measures one configuration twice
// still yields unique keys and merge coverage stays exact. Key order
// follows list order, making the keys as stable as the enumeration.
func SpecKeys(specs []RunSpec) ([]string, error) {
	out := make([]string, len(specs))
	seen := make(map[string]int, len(specs))
	for i, s := range specs {
		k, err := SpecKey(s)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		seen[k]++
		if j := seen[k]; j > 1 {
			k = fmt.Sprintf("%s#%d", k, j)
		}
		out[i] = k
	}
	return out, nil
}
