// Command coupverify exhaustively model-checks one configuration of the
// detailed message-level MESI or MEUSI protocol. The full Fig 8
// verification-cost grid is an experiment: run it with
// `coupbench -exp fig8`.
//
// Usage:
//
//	coupverify -protocol meusi -cores 3 -ops 2
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/proto"
)

// kinds maps model-checker protocol names to their transition tables. The
// checker models the two detailed protocols the paper verifies (Sec 4.3);
// this is distinct from the simulator's protocol table.
var kinds = map[string]proto.Kind{
	"mesi":  proto.MESI,
	"meusi": proto.MEUSI,
}

func kindNames() string {
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, strings.ToUpper(n))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	var (
		protoN  = flag.String("protocol", "meusi", "modelled protocol (case-insensitive)")
		cores   = flag.Int("cores", 2, "modelled cores")
		ops     = flag.Int("ops", 1, "commutative-update types (meusi)")
		level3  = flag.Bool("level3", false, "model three-level hierarchy rules")
		budget  = flag.Int("budget", 5_000_000, "state budget")
		timeout = flag.Duration("timeout", 5*time.Minute, "time budget")
	)
	flag.StringVar(protoN, "proto", *protoN, "alias for -protocol")
	flag.Parse()

	kind, ok := kinds[strings.ToLower(*protoN)]
	if !ok {
		fmt.Fprintf(os.Stderr, "coupverify: unknown protocol %q (have: %s)\n", *protoN, kindNames())
		os.Exit(2)
	}
	sy := &proto.System{Kind: kind, NCores: *cores, Level3: *level3}
	if kind == proto.MEUSI {
		sy.NOps = *ops
	}
	fmt.Printf("verifying %v, %d cores, %d ops, level3=%v...\n", sy.Kind, sy.NCores, sy.NOps, sy.Level3)
	r := check.Verify(sy, *budget, *timeout)
	fmt.Println(r.String())
	if r.Err != nil {
		os.Exit(1)
	}
}
