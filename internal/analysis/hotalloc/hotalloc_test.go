package hotalloc_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/antest"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/load"
)

// TestHot checks the static half against the fixture: every known
// allocation construct flagged in the annotated function, error/cold
// paths and unannotated functions left alone.
func TestHot(t *testing.T) {
	antest.Run(t, "testdata/src/hot", "example.com/hot", hotalloc.Analyzer)
}

// TestParseEscapes feeds ParseEscapes a verbatim-shaped -gcflags=-m
// transcript: header lines set the package, only heap-escape lines
// survive, inlining and leaking-param chatter is dropped.
func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# repro/pkg/commute",
		"pkg/commute/counter.go:28:6: can inline NewCounter",
		"pkg/commute/shard.go:88:3: moved to heap: tok",
		"# repro/pkg/coupd",
		"pkg/coupd/server.go:120:14: req escapes to heap",
		"pkg/coupd/server.go:121:9: leaking param: w",
		"",
	}, "\n")
	escs := hotalloc.ParseEscapes([]byte(out))
	if len(escs) != 2 {
		t.Fatalf("got %d escapes, want 2: %+v", len(escs), escs)
	}
	if escs[0].Pkg != "repro/pkg/commute" || escs[0].File != "pkg/commute/shard.go" || escs[0].Line != 88 {
		t.Errorf("escape 0 = %+v, want shard.go:88 in repro/pkg/commute", escs[0])
	}
	if escs[1].Pkg != "repro/pkg/coupd" || escs[1].Line != 120 || !strings.Contains(escs[1].Msg, "escapes to heap") {
		t.Errorf("escape 1 = %+v, want server.go:120 escapes-to-heap", escs[1])
	}
}

// TestCrossCheckFlagsEscape builds a throwaway module whose one
// //coup:hotpath function forces a variable to the heap; the compiler
// cross-check must contradict the annotation.
func TestCrossCheckFlagsEscape(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module esc\n\ngo 1.24\n")
	write("esc.go", `// Package esc is an intentionally broken hot path.
package esc

// Leak claims a zero-alloc hot path but returns the address of a local,
// which escape analysis must move to the heap.
//
//coup:hotpath
func Leak(n int) *int {
	x := n + 1
	return &x
}
`)
	pkg, err := load.Dir(dir, "esc")
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	diags, checked, err := hotalloc.CrossCheck(dir, []*load.Package{pkg})
	if err != nil {
		t.Fatalf("CrossCheck: %v", err)
	}
	if len(checked) != 1 || checked[0] != "esc.Leak" {
		t.Fatalf("checked = %v, want [esc.Leak]", checked)
	}
	if len(diags) == 0 {
		t.Fatalf("CrossCheck missed the escaping hot path")
	}
	if !strings.Contains(diags[0].Message, "Leak") || !strings.Contains(diags[0].Message, "heap") {
		t.Errorf("diagnostic %q does not name the function and the escape", diags[0].Message)
	}
}

// TestCrossCheckRepoHotPaths holds the real tree to its own annotations:
// every //coup:hotpath function in the simulator, the commutative
// aggregation library, and the coupd server must survive the compiler's
// escape analysis (these are the functions the zero-alloc tests time),
// and there must be enough of them that the contract means something.
func TestCrossCheckRepoHotPaths(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(root, "./internal/sim", "./pkg/commute", "./pkg/coupd")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	diags, checked, err := hotalloc.CrossCheck(root, pkgs)
	if err != nil {
		t.Fatalf("CrossCheck: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s", d.Pos, d.Message)
	}
	if len(checked) < 6 {
		t.Errorf("only %d //coup:hotpath functions found (%v), want at least 6 across sim/commute/coupd",
			len(checked), checked)
	}
}
