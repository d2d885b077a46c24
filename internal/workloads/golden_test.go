package workloads

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
)

// updateGolden regenerates testdata/golden_stats.json from the current
// engine. Run `go test ./internal/workloads -run TestGoldenStats -update`
// only when a change is *supposed* to alter simulated timing; engine
// optimizations must leave the file untouched.
var updateGolden = flag.Bool("update", false, "rewrite golden stats from the current engine")

const goldenPath = "testdata/golden_stats.json"

// goldenConfigs are the machine shapes pinned by the golden test: a
// single-chip machine and a two-chip machine (17 cores crosses the L4 /
// global-directory path), both with small caches so evictions, partial
// reductions and directory recalls all happen even at tiny workload sizes.
func goldenConfigs(p sim.Protocol) []sim.Config {
	var out []sim.Config
	for _, cores := range []int{4, 17} {
		cfg := sim.DefaultConfig(cores, p)
		cfg.L2Size = 4 << 10
		cfg.L3Size = 64 << 10
		cfg.L4Size = 256 << 10
		cfg.Seed = 3
		out = append(out, cfg)
	}
	return out
}

// goldenParams shrinks every workload far below demo size so the full
// grid stays fast enough for -race runs in CI.
func goldenParams() Params {
	return Params{
		Size:            72,
		Bins:            64,
		Scale:           6,
		EdgeFactor:      4,
		Iters:           2,
		Counters:        64,
		UpdatesPerEpoch: 50,
		NNZPerCol:       4,
		Seed:            11,
	}
}

// TestGoldenStats pins the engine: for every registered workload ×
// protocol × machine shape, the full Stats struct — cycles, hit
// distribution, latency breakdown, protocol events and traffic — must be
// byte-identical to the recorded values. Any engine change that shifts a
// single counter anywhere in the grid fails here, so scheduler and memory-
// system rewrites can be proven observation-equivalent.
func TestGoldenStats(t *testing.T) {
	got := map[string]sim.Stats{}
	for _, in := range All() {
		for _, p := range sim.ProtocolIDs() {
			for _, cfg := range goldenConfigs(p) {
				key := fmt.Sprintf("%s/%s/%dc", in.Name, p, cfg.Cores)
				w, err := in.New(goldenParams())
				if err != nil {
					t.Fatalf("%s: factory: %v", key, err)
				}
				st, err := RunIn(nil, w, cfg)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got[key] = st
			}
		}
	}

	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]sim.Stats, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want map[string]sim.Stats
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d (regenerate with -update after registry changes)", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: not in golden file (new workload/protocol? regenerate with -update)", key)
			continue
		}
		if g != w {
			t.Errorf("%s: stats diverged from golden engine\n got: %+v\nwant: %+v", key, g, w)
		}
	}
}
