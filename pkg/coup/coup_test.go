package coup

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestProtocolRegistryHasPaperProtocols(t *testing.T) {
	if got, want := strings.Join(ProtocolNames(), ","), "MESI,MEUSI,MSI,MUSI,RMO"; got != want {
		t.Errorf("ProtocolNames() = %s, want %s", got, want)
	}
	for i, p := range Protocols() {
		if p.String() != ProtocolNames()[i] {
			t.Errorf("Protocols()[%d] = %s, want %s", i, p, ProtocolNames()[i])
		}
	}
	for _, name := range []string{"MSI", "mesi", "MuSi", "meusi", "RMO"} {
		m, err := NewMachine(WithCores(1), WithProtocol(name))
		if err != nil {
			t.Fatalf("WithProtocol(%q): %v", name, err)
		}
		if got := m.Protocol().String(); got != strings.ToUpper(name) {
			t.Errorf("WithProtocol(%q) built a %s machine", name, got)
		}
	}
}

func TestProtocolSemantics(t *testing.T) {
	want := map[string][2]bool{ // name -> {HasU, Remote}
		"MESI":  {false, false},
		"MSI":   {false, false},
		"MUSI":  {true, false},
		"MEUSI": {true, false},
		"RMO":   {false, true},
	}
	for _, p := range Protocols() {
		w, ok := want[p.String()]
		if !ok {
			t.Errorf("unexpected protocol %s", p)
			continue
		}
		if p.HasU() != w[0] || p.Remote() != w[1] {
			t.Errorf("%s: HasU=%v Remote=%v, want %v %v", p, p.HasU(), p.Remote(), w[0], w[1])
		}
	}
}

func TestLookupProtocolUnknownListsNames(t *testing.T) {
	_, err := NewMachine(WithProtocol("MOESI"))
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("err = %v, want ErrUnknownProtocol", err)
	}
	for _, name := range []string{"MESI", "MEUSI", "RMO"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list protocol %s", err, name)
		}
	}
}

func TestWorkloadRegistryBuiltins(t *testing.T) {
	want := []string{
		"hist", "hist-priv-core", "hist-priv-socket", "spmv", "pgrank",
		"bfs", "fluid", "refcount", "refcount-snzi", "counter",
		"refcount-delayed", "refcount-refcache",
	}
	for _, name := range want {
		if _, err := LookupWorkload(name); err != nil {
			t.Errorf("built-in workload %q not registered: %v", name, err)
		}
	}
	if _, err := LookupWorkload("HIST"); err != nil {
		t.Errorf("case-insensitive workload lookup failed: %v", err)
	}
}

func TestLookupWorkloadUnknownListsNames(t *testing.T) {
	_, err := LookupWorkload("nbody")
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("err = %v, want ErrUnknownWorkload", err)
	}
	if !strings.Contains(err.Error(), "hist") || !strings.Contains(err.Error(), "bfs") {
		t.Errorf("error %q does not list registered workloads", err)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"zero cores", []Option{WithCores(0)}, ErrInvalidOption},
		{"negative cores", []Option{WithCores(-4)}, ErrInvalidOption},
		{"zero reduction throughput", []Option{WithReductionALU(0, 3)}, ErrInvalidOption},
		{"unknown protocol", []Option{WithProtocol("MOESI")}, ErrUnknownProtocol},
		{"conflicting cores", []Option{WithCores(16), WithCores(32)}, ErrConflictingOptions},
		{"conflicting protocols", []Option{WithProtocol("MESI"), WithProtocol("MEUSI")}, ErrConflictingOptions},
		{"too many cores", []Option{WithCores(100_000)}, ErrInvalidOption},
	}
	for _, tc := range cases {
		if _, err := NewMachine(tc.opts...); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Repeating the same value is not a conflict; non-power-of-two total
	// core counts are fine (the paper measures 96).
	if _, err := NewMachine(WithCores(96), WithCores(96), WithProtocol("mesi"), WithProtocol("MESI")); err != nil {
		t.Errorf("repeated identical options: %v", err)
	}
}

func TestNewMachineDefaultsAndKernel(t *testing.T) {
	m, err := NewMachine(WithCores(8), WithProtocol("MEUSI"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 8 || m.Protocol().String() != "MEUSI" {
		t.Fatalf("machine = %d cores %s", m.Cores(), m.Protocol())
	}
	ctr := m.Alloc(64, 64)
	st := m.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.CommAdd64(ctr, 1)
		}
	})
	if got := m.ReadWord64(ctr); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	if st.Cycles == 0 || st.CommUpdates != 800 {
		t.Errorf("stats: cycles=%d commUpdates=%d", st.Cycles, st.CommUpdates)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestRunGoldenPath is the smoke test of the facade: a tiny hist under
// MESI and MEUSI, checking validation runs and COUP helps.
func TestRunGoldenPath(t *testing.T) {
	params := WorkloadParams{Size: 8000, Bins: 128, Seed: 7}
	run := func(proto string) Stats {
		st, err := Run("hist",
			WithCores(16),
			WithProtocol(proto),
			WithWorkloadParams(params),
		)
		if err != nil {
			t.Fatalf("Run(hist, %s): %v", proto, err)
		}
		return st
	}
	mesi := run("MESI")
	meusi := run("MEUSI")
	if mesi.Workload != "hist" || mesi.Protocol != "MESI" || mesi.Cores != 16 {
		t.Errorf("stats identity wrong: %+v", mesi)
	}
	if mesi.Atomics == 0 {
		t.Error("MESI run should execute commutative updates as atomics")
	}
	if meusi.ULocalHits == 0 {
		t.Error("MEUSI run should satisfy updates in the private cache")
	}
	if meusi.Cycles >= mesi.Cycles {
		t.Errorf("COUP (%d cycles) should beat MESI atomics (%d cycles) on contended hist",
			meusi.Cycles, mesi.Cycles)
	}
}

func TestRunUnknownNamesAndBadParams(t *testing.T) {
	if _, err := Run("nope"); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("err = %v, want ErrUnknownWorkload", err)
	}
	if _, err := Run("hist", WithProtocol("nope")); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("err = %v, want ErrUnknownProtocol", err)
	}
	if _, err := Run("hist", WithWorkloadParams(WorkloadParams{Size: -1})); err == nil {
		t.Error("negative workload size accepted, want error")
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	st, err := Run("counter",
		WithCores(4),
		WithProtocol("MEUSI"),
		WithWorkloadParams(WorkloadParams{Size: 50}),
	)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back != st {
		t.Errorf("JSON round trip changed stats:\n got %+v\nwant %+v", back, st)
	}
	for _, field := range []string{`"protocol"`, `"cycles"`, `"amat_breakdown"`, `"off_chip_bytes"`} {
		if !strings.Contains(string(blob), field) {
			t.Errorf("JSON missing %s:\n%s", field, blob)
		}
	}
}
