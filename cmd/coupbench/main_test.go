package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLI builds coupbench and drives it at tiny scale: a plain run
// prints its tables and exits 0, and flag misuse, unknown experiments
// and removed flags exit 2.
func TestCLI(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build coupbench")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "coupbench")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	tiny := []string{"-exp", "table2,fig13c", "-quick", "-scale", "0.02"}
	run := func(t *testing.T, args ...string) (stdout, stderr string, code int) {
		t.Helper()
		cmd := exec.Command(bin, append(append([]string{}, tiny...), args...)...)
		var o, e strings.Builder
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
		case errors.As(err, &exit):
			code = exit.ExitCode()
		default:
			t.Fatalf("coupbench %v: %v", args, err)
		}
		return o.String(), e.String(), code
	}

	t.Run("tables", func(t *testing.T) {
		out, stderr, code := run(t)
		if code != 0 {
			t.Fatalf("plain run exited %d\n%s", code, stderr)
		}
		if !strings.Contains(out, "== Table 2") || !strings.Contains(out, "== Fig 13c") {
			t.Fatalf("plain run printed no tables:\n%s", out)
		}
	})

	t.Run("usage-errors", func(t *testing.T) {
		for _, args := range [][]string{
			{"-parallel", "-1"},
			{"-exp", "no-such-experiment"},
			{"-shard", "1/2"},
			{"-fanout", "2"},
		} {
			if _, stderr, code := run(t, args...); code != 2 {
				t.Errorf("coupbench %v exited %d, want 2\n%s", args, code, stderr)
			}
		}
	})
}
