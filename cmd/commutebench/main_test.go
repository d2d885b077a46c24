package main_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestCLI builds commutebench and runs it at tiny sizes against both
// drivers: the in-process structures, and an in-process coupd (-self).
// Each driver's points must carry every JSON field its scripts read.
func TestCLI(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build commutebench")
	}
	bin := filepath.Join(t.TempDir(), "commutebench")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	tiny := []string{"-threads", "1,2", "-ops", "2000", "-reps", "2", "-json"}
	points := func(t *testing.T, args ...string) []map[string]any {
		t.Helper()
		cmd := exec.Command(bin, append(args, tiny...)...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("commutebench %v: %v\n%s", args, err, out)
		}
		var ps []map[string]any
		if err := json.Unmarshal(out, &ps); err != nil {
			t.Fatalf("commutebench %v: %v\n%s", args, err, out)
		}
		if len(ps) == 0 {
			t.Fatalf("commutebench %v: no points", args)
		}
		return ps
	}
	hasFields := func(t *testing.T, p map[string]any, fields ...string) {
		t.Helper()
		for _, f := range fields {
			if _, ok := p[f]; !ok {
				t.Errorf("point %v lacks %q", p, f)
			}
		}
	}
	inProc := []string{"kind", "impl", "threads", "reps", "mean_ns_per_op", "ci95_ns_per_op", "mops_per_sec"}

	t.Run("inproc", func(t *testing.T) {
		ps := points(t, "-kind", "counter")
		if len(ps) != 2*3 {
			t.Errorf("got %d points, want 2 thread counts x 3 impls", len(ps))
		}
		for _, p := range ps {
			hasFields(t, p, inProc...)
			if _, ok := p["p50_ns"]; ok {
				t.Errorf("in-process point %v carries coupd latency", p)
			}
		}
	})

	t.Run("self", func(t *testing.T) {
		ps := points(t, "-self", "-kind", "hist", "-batch", "64")
		if len(ps) != 2 {
			t.Errorf("got %d points, want 2 thread counts x commute", len(ps))
		}
		for _, p := range ps {
			hasFields(t, p, "kind", "threads", "batch", "reps", "mean_ns_per_op", "ci95_ns_per_op",
				"updates_per_sec", "ci95_updates_per_sec", "p50_ns", "p99_ns", "max_ns",
				"rep_p50_ns", "rep_p99_ns", "rep_max_ns")
			hasFields(t, p, inProc...)
			p50, _ := p["p50_ns"].(float64)
			p99, _ := p["p99_ns"].(float64)
			maxNs, _ := p["max_ns"].(float64)
			if !(p50 > 0 && p50 <= p99 && p99 <= maxNs) {
				t.Errorf("latency chain p50=%v p99=%v max=%v, want 0 < p50 <= p99 <= max", p50, p99, maxNs)
			}
		}
	})

	t.Run("self-rejects-baselines", func(t *testing.T) {
		for _, args := range [][]string{
			{"-self", "-impl", "atomic"},
			{"-addr", "http://127.0.0.1:1", "-impl", "commute,mutex"},
		} {
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("commutebench %v: err=%v, want exit status 2\n%s", args, err, out)
			}
		}
	})
}
