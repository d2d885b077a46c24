package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ops"
)

// TestProtocolTable pins the protocol table: names, the sorted listing and
// the three axes the engine reads.
func TestProtocolTable(t *testing.T) {
	want := []struct {
		p                  Protocol
		name               string
		hasE, hasU, remote bool
	}{
		{MESI, "MESI", true, false, false},
		{MEUSI, "MEUSI", true, true, false},
		{RMO, "RMO", true, false, true},
		{MSI, "MSI", false, false, false},
		{MUSI, "MUSI", false, true, false},
	}
	if len(want) != int(numProtocols) {
		t.Fatalf("table has %d protocols, test lists %d", numProtocols, len(want))
	}
	var names []string
	for _, w := range want {
		if got := w.p.String(); got != w.name {
			t.Errorf("Protocol(%d).String() = %q, want %q", w.p, got, w.name)
		}
		for _, spelling := range []string{w.name, strings.ToLower(w.name), strings.ToUpper(w.name[:1]) + strings.ToLower(w.name[1:])} {
			if got, ok := ProtocolByName(spelling); !ok || got != w.p {
				t.Errorf("ProtocolByName(%q) = %v, %v; want %v", spelling, got, ok, w.p)
			}
		}
		if w.p.hasE() != w.hasE || w.p.HasU() != w.hasU || w.p.Remote() != w.remote {
			t.Errorf("%v axes: E=%v U=%v remote=%v, want %v %v %v",
				w.p, w.p.hasE(), w.p.HasU(), w.p.Remote(), w.hasE, w.hasU, w.remote)
		}
		if w.p.commNative() != (w.hasU || w.remote) {
			t.Errorf("%v commNative = %v, want hasU || remote", w.p, w.p.commNative())
		}
		if w.p.Description() == "" {
			t.Errorf("%v has no description", w.p)
		}
		names = append(names, w.name)
	}
	if _, ok := ProtocolByName("MOESI"); ok {
		t.Error("ProtocolByName accepted an unknown name")
	}

	var listed []string
	for _, p := range ProtocolIDs() {
		listed = append(listed, p.String())
	}
	slices.Sort(names)
	if !slices.Equal(listed, names) {
		t.Errorf("ProtocolIDs() lists %v, want each protocol once sorted by name: %v", listed, names)
	}

	bad := DefaultConfig(1, numProtocols)
	if bad.Validate() == nil {
		t.Error("Validate accepted Protocol(numProtocols)")
	}
	if s := numProtocols.String(); s == "" {
		t.Error("String of an unknown protocol is empty")
	}
}

func TestStateStringsAndPredicates(t *testing.T) {
	for s, name := range map[lineState]string{stateI: "I", stateS: "S", stateU: "U", stateE: "E", stateM: "M"} {
		if s.String() != name {
			t.Errorf("%d prints %q, want %q", s, s.String(), name)
		}
	}
	if got := (stateM + 1).String(); got == "" {
		t.Error("unknown state prints empty")
	}
	for _, c := range []struct {
		s               lineState
		read, exclusive bool
	}{
		{stateI, false, false},
		{stateS, true, false},
		{stateU, false, false}, // update-only: U cannot satisfy reads
		{stateE, true, true},
		{stateM, true, true},
	} {
		if c.s.CanRead() != c.read || c.s.Exclusive() != c.exclusive {
			t.Errorf("%v: CanRead=%v Exclusive=%v, want %v %v", c.s, c.s.CanRead(), c.s.Exclusive(), c.read, c.exclusive)
		}
	}
}

// privState returns core's L2 state for the line holding addr: I when the
// core holds no copy.
func privState(m *Machine, core int, addr uint64) lineState {
	if p := m.hier.priv[core].l2.peek(addr >> 6); p != nil {
		return p.state
	}
	return stateI
}

// arcStep is one access by one core in an arc test; steps are separated
// by barriers, so they take effect in order.
type arcStep struct {
	core int
	op   byte // 'R' load, 'W' store of 7, 'C' CommAdd64 of 1, 'O' CommOr64 of 1, 'A' AtomicAdd64 of 100
}

// runSteps runs steps on a two-core machine with coresPerChip cores per
// chip, checks its invariants, and returns it with the one line's address.
func runSteps(t *testing.T, p Protocol, coresPerChip int, steps []arcStep) (*Machine, uint64) {
	t.Helper()
	cfg := DefaultConfig(2, p)
	cfg.CoresPerChip = coresPerChip
	m := New(cfg)
	a := m.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for _, s := range steps {
			if c.Tid() == s.core {
				switch s.op {
				case 'R':
					c.Load64(a)
				case 'W':
					c.Store64(a, 7)
				case 'C':
					c.CommAdd64(a, 1)
				case 'O':
					c.CommOr64(a, 1)
				case 'A':
					c.AtomicAdd64(a, 100)
				}
			}
			c.Barrier()
		}
	})
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%v %v: %v", p, steps, err)
	}
	return m, a
}

// runArc runs steps and returns both cores' final L2 states for the line.
func runArc(t *testing.T, p Protocol, coresPerChip int, steps []arcStep) [2]lineState {
	t.Helper()
	m, a := runSteps(t, p, coresPerChip, steps)
	return [2]lineState{privState(m, 0, a), privState(m, 1, a)}
}

// arcCase is an access sequence and the private states it must leave,
// checked with both cores on one chip and on two chips.
type arcCase struct {
	name  string
	p     Protocol
	steps []arcStep
	want  [2]lineState
}

func checkArcs(t *testing.T, cases []arcCase) {
	t.Helper()
	for _, c := range cases {
		for _, cpc := range []int{16, 1} {
			if got := runArc(t, c.p, cpc, c.steps); got != c.want {
				t.Errorf("%s (%v, %d cores/chip): core states %v, want %v", c.name, c.p, cpc, got, c.want)
			}
		}
	}
}

// TestMESIBasics checks the simulator's canonical MESI arcs, and that MSI
// never grants E.
func TestMESIBasics(t *testing.T) {
	checkArcs(t, []arcCase{
		{"read miss, unshared: E", MESI, []arcStep{{0, 'R'}}, [2]lineState{stateE, stateI}},
		{"read miss, unshared: MSI has no E", MSI, []arcStep{{0, 'R'}}, [2]lineState{stateS, stateI}},
		{"second reader shares", MESI, []arcStep{{0, 'R'}, {1, 'R'}}, [2]lineState{stateS, stateS}},
		{"read downgrades a remote M owner", MESI, []arcStep{{0, 'W'}, {1, 'R'}}, [2]lineState{stateS, stateS}},
		{"write invalidates readers", MESI, []arcStep{{0, 'R'}, {1, 'R'}, {0, 'W'}}, [2]lineState{stateM, stateI}},
		{"write takes a remote M line", MSI, []arcStep{{0, 'W'}, {1, 'W'}}, [2]lineState{stateI, stateM}},
		{"E upgrades to M on a write", MESI, []arcStep{{0, 'R'}, {0, 'W'}}, [2]lineState{stateM, stateI}},
		{"updates run as atomics: exclusive", MESI, []arcStep{{0, 'C'}, {1, 'C'}}, [2]lineState{stateI, stateM}},
	})
}

// TestMEUSIUpdatePaths checks the simulator's update-only arcs (Figs 4-6).
func TestMEUSIUpdatePaths(t *testing.T) {
	checkArcs(t, []arcCase{
		// Fig 6: a lone updater is granted M; without E it enters U.
		{"lone updater, MEUSI: M", MEUSI, []arcStep{{0, 'C'}}, [2]lineState{stateM, stateI}},
		{"lone updater, MUSI: U", MUSI, []arcStep{{0, 'C'}}, [2]lineState{stateU, stateI}},
		// Fig 5b: a second updater downgrades the M owner to U.
		{"updaters share U", MEUSI, []arcStep{{0, 'C'}, {1, 'C'}}, [2]lineState{stateU, stateU}},
		{"updaters share U, MUSI", MUSI, []arcStep{{0, 'C'}, {1, 'C'}}, [2]lineState{stateU, stateU}},
		// Fig 5a: an updater invalidates read-only copies.
		{"update invalidates readers", MUSI, []arcStep{{0, 'R'}, {1, 'R'}, {1, 'C'}}, [2]lineState{stateI, stateU}},
		// A write fully reduces the U copies and takes the line exclusive.
		{"write reduces updaters", MEUSI, []arcStep{{0, 'C'}, {1, 'C'}, {0, 'W'}}, [2]lineState{stateM, stateI}},
		// Sec 3.2: an update of another type serializes through a full
		// reduction.
		{"type switch", MUSI, []arcStep{{0, 'C'}, {1, 'C'}, {1, 'O'}}, [2]lineState{stateI, stateU}},
	})
}

// TestReadAfterUpdateGrant pins the read of a line two cores have updated:
// the full reduction (Fig 5d) leaves the reader the only copy, so MEUSI
// grants it E and MUSI, which has no E, grants S; the other updater keeps
// nothing. The read sees both updates.
func TestReadAfterUpdateGrant(t *testing.T) {
	for _, c := range []struct {
		p    Protocol
		want lineState
	}{{MEUSI, stateE}, {MUSI, stateS}} {
		for _, cpc := range []int{16, 1} {
			cfg := DefaultConfig(2, c.p)
			cfg.CoresPerChip = cpc
			m := New(cfg)
			a := m.Alloc(64, 64)
			var read uint64
			m.Run(func(x *Ctx) {
				x.CommAdd64(a, 1)
				x.Barrier()
				if x.Tid() == 0 {
					read = x.Load64(a)
				}
			})
			if read != 2 {
				t.Errorf("%v, %d cores/chip: read %d, want 2", c.p, cpc, read)
			}
			if got := privState(m, 0, a); got != c.want {
				t.Errorf("%v, %d cores/chip: reader holds %v, want %v", c.p, cpc, got, c.want)
			}
			if got := privState(m, 1, a); got != stateI {
				t.Errorf("%v, %d cores/chip: other updater holds %v, want no copy", c.p, cpc, got)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("%v, %d cores/chip: %v", c.p, cpc, err)
			}
		}
	}
}

// prefixes are access sequences that leave core 0 in each state it can
// reach: I (no access, or another core's copy), S, U, E and M.
var prefixes = [][]arcStep{
	nil,
	{{1, 'R'}},
	{{1, 'W'}},
	{{1, 'C'}},
	{{0, 'R'}},
	{{0, 'W'}},
	{{0, 'C'}},
	{{0, 'R'}, {1, 'R'}},
	{{0, 'C'}, {1, 'C'}},
}

// TestTransitionsTotal: from every prior state, every own request
// completes and leaves both copies in states the protocol has: no U
// without hasU, no E without hasE. (runSteps checks the directories
// agree.)
func TestTransitionsTotal(t *testing.T) {
	for p := range numProtocols {
		for _, pre := range prefixes {
			for _, op := range []byte{'R', 'W', 'C', 'O'} {
				for core := range 2 {
					got := runArc(t, p, 16, append(slices.Clone(pre), arcStep{core, op}))
					for _, st := range got {
						if st == stateU && !p.HasU() || st == stateE && !p.hasE() {
							t.Errorf("%v %v then %c by core %d: states %v", p, pre, op, core, got)
						}
					}
				}
			}
		}
	}
}

// TestOwnRequestsGainPermission: after a core's own load, store or
// commutative update completes, its private copy satisfies that same
// request locally, from any prior state, under every protocol. (RMO
// executes updates at the home bank and caches nothing for them.)
func TestOwnRequestsGainPermission(t *testing.T) {
	for p := range numProtocols {
		for _, pre := range prefixes {
			for _, c := range []struct {
				op byte
				r  request
			}{
				{'R', request{kind: opLoad}},
				{'W', request{kind: opStore}},
				{'C', request{kind: opComm, otype: ops.AddI64}},
			} {
				if c.op == 'C' && p.Remote() {
					continue
				}
				m, a := runSteps(t, p, 16, append(slices.Clone(pre), arcStep{0, c.op}))
				pl := m.hier.priv[0].l2.peek(a >> 6)
				if pl == nil || !m.hier.privSufficient(pl, &c.r) {
					t.Errorf("%v %v then own %c: core 0 left in %v, which cannot serve it", p, pre, c.op, privState(m, 0, a))
				}
			}
		}
	}
}

// TestInvalidationAlwaysInvalidates: another core's atomic needs the line
// exclusive, so core 0's copy ends in I from every state, and the data of
// an M copy or the partial update of a U copy travels back: the atomic
// sees every earlier store and update.
func TestInvalidationAlwaysInvalidates(t *testing.T) {
	for p := range numProtocols {
		for _, pre := range prefixes {
			var want uint64
			for _, s := range pre {
				switch s.op {
				case 'W':
					want = 7
				case 'C':
					want++
				}
			}
			m, a := runSteps(t, p, 16, append(slices.Clone(pre), arcStep{1, 'A'}))
			if got := privState(m, 0, a); got != stateI {
				t.Errorf("%v %v then remote atomic: core 0 holds %v, want I", p, pre, got)
			}
			if got := m.ReadWord64(a); got != want+100 {
				t.Errorf("%v %v then remote atomic: word %d, want %d", p, pre, got, want+100)
			}
		}
	}
}

// TestSymmetrySU checks the S/U symmetry the paper exploits (Sec 3.1.1)
// on MUSI: reads are one more operation type over the non-exclusive state.
// Joining same-type sharers costs no invalidation or reduction, whether
// they read (S) or update (U); crossing the S/U boundary in either
// direction displaces the other-type sharers; and an M owner is downgraded
// to S by a reader just as to U by an updater.
func TestSymmetrySU(t *testing.T) {
	for _, c := range []struct {
		name     string
		a, b     []arcStep
		wantA    [2]lineState
		wantB    [2]lineState
		displace bool
	}{
		{"join same-type sharers", []arcStep{{0, 'R'}, {1, 'R'}}, []arcStep{{0, 'C'}, {1, 'C'}},
			[2]lineState{stateS, stateS}, [2]lineState{stateU, stateU}, false},
		{"type switch across S/U", []arcStep{{0, 'R'}, {1, 'R'}, {1, 'C'}}, []arcStep{{0, 'C'}, {1, 'C'}, {1, 'R'}},
			[2]lineState{stateI, stateU}, [2]lineState{stateI, stateS}, true},
		{"owner downgrade", []arcStep{{0, 'W'}, {1, 'R'}}, []arcStep{{0, 'W'}, {1, 'C'}},
			[2]lineState{stateS, stateS}, [2]lineState{stateU, stateU}, false},
	} {
		ma, a := runSteps(t, MUSI, 16, c.a)
		mb, b := runSteps(t, MUSI, 16, c.b)
		gotA := [2]lineState{privState(ma, 0, a), privState(ma, 1, a)}
		gotB := [2]lineState{privState(mb, 0, b), privState(mb, 1, b)}
		if gotA != c.wantA || gotB != c.wantB {
			t.Errorf("%s: S side %v, U side %v; want %v, %v", c.name, gotA, gotB, c.wantA, c.wantB)
		}
		sa, sb := ma.Stats(), mb.Stats()
		if inv, red := sa.Invalidations > 0, sb.FullReductions > 0; inv != c.displace || red != c.displace {
			t.Errorf("%s: S side invalidated=%v, U side reduced=%v; want both %v", c.name, inv, red, c.displace)
		}
	}
}
