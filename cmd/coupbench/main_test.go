package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCLI builds coupbench and drives its sharded modes at tiny scale:
// two shards merged must print the tables a single process prints, a
// merge with a shard missing must fail naming the missing specs, and
// flag misuse must exit 2.
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
	// The filter the nightly sweep-merge job applies: job reports and
	// wall-clock lines are the only output a merge may change.
	volatile := regexp.MustCompile(`(?m)^(\[.*|\(.* in .*\))\n`)
	tables := func(out string) string { return volatile.ReplaceAllString(out, "") }

	t.Run("shard-merge", func(t *testing.T) {
		plain, stderr, code := run(t)
		if code != 0 {
			t.Fatalf("plain run exited %d\n%s", code, stderr)
		}
		store := filepath.Join(dir, "store")
		for _, k := range []string{"1/2", "2/2"} {
			if _, stderr, code := run(t, "-shard", k, "-store", store); code != 0 {
				t.Fatalf("-shard %s exited %d\n%s", k, code, stderr)
			}
		}
		merged, stderr, code := run(t, "-merge", store)
		if code != 0 {
			t.Fatalf("-merge exited %d\n%s", code, stderr)
		}
		if !strings.Contains(plain, "== Table 2") || !strings.Contains(plain, "== Fig 13c") {
			t.Fatalf("plain run printed no tables:\n%s", plain)
		}
		if got, want := tables(merged), tables(plain); got != want {
			t.Errorf("merged tables differ from a single-process run\nmerged:\n%s\nplain:\n%s", got, want)
		}
	})

	t.Run("merge-missing-shard", func(t *testing.T) {
		store := filepath.Join(dir, "half")
		if _, stderr, code := run(t, "-shard", "1/2", "-store", store); code != 0 {
			t.Fatalf("-shard 1/2 exited %d\n%s", code, stderr)
		}
		_, stderr, code := run(t, "-merge", store)
		if code != 1 {
			t.Fatalf("-merge of half the shards exited %d, want 1\n%s", code, stderr)
		}
		for _, id := range []string{"table2", "fig13c"} {
			if !regexp.MustCompile(`merge coverage for ` + id + `: \d+ missing \(g1:\S`).MatchString(stderr) {
				t.Errorf("stderr does not name %s's missing spec keys:\n%s", id, stderr)
			}
		}
	})

	t.Run("usage-errors", func(t *testing.T) {
		for _, args := range [][]string{
			{"-shard", "1/2"},
			{"-shard", "1/2", "-store", filepath.Join(dir, "s"), "-merge", filepath.Join(dir, "s")},
			{"-fanout", "2", "-store", filepath.Join(dir, "f")},
		} {
			if _, stderr, code := run(t, args...); code != 2 {
				t.Errorf("coupbench %v exited %d, want 2\n%s", args, code, stderr)
			}
		}
	})
}
