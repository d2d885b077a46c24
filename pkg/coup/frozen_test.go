package coup

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// faultyKernel is a workload whose Setup freezes one line and whose
// kernel on core 1 writes it, or panics with panicWith when that is set.
type faultyKernel struct {
	base      uint64
	panicWith error
}

func (w *faultyKernel) Name() string { return "faulty" }

func (w *faultyKernel) Setup(m *sim.Machine) {
	w.base = m.AllocLines(2)
	m.Freeze(w.base, 64)
}

func (w *faultyKernel) Kernel(c *Ctx) {
	c.Load64(w.base)
	c.CommAdd64(w.base+64, 1)
	if c.Tid() == 1 {
		if w.panicWith != nil {
			panic(w.panicWith)
		}
		c.Store64(w.base+8, 1)
	}
}

func (w *faultyKernel) Validate(*sim.Machine) error { return nil }

// TestFrozenWriteIsAnError: a kernel write to frozen memory reaches
// RunWorkload's and a sweep's callers as a *FrozenWriteError for
// errors.As, not as a panic, and Machine.Run panics with it.
func TestFrozenWriteIsAnError(t *testing.T) {
	check := func(what string, err error, w *faultyKernel) {
		t.Helper()
		var fw *FrozenWriteError
		if !errors.As(err, &fw) || fw.Addr != w.base+8 || fw.Core != 1 {
			t.Errorf("%s: err = %v, want a *FrozenWriteError at %#x by core 1", what, err, w.base+8)
		}
	}
	for _, p := range []string{"MEUSI", "MESI"} {
		w := &faultyKernel{}
		_, err := RunWorkload(w, WithCores(4), WithProtocol(p))
		check("RunWorkload/"+p, err, w)
	}
	w := &faultyKernel{}
	res, err := Sweep([]RunSpec{{
		Make:    func() (Workload, error) { return w, nil },
		Options: []Option{WithCores(4)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	check("Sweep", res[0].Err, w)
	if res[0].Panicked {
		t.Error("a frozen write is an error, not a recovered panic")
	}

	m, err := NewMachine(WithCores(4))
	if err != nil {
		t.Fatal(err)
	}
	in := m.AllocLines(1)
	m.Freeze(in, 64)
	got := func() (r any) {
		defer func() { r = recover() }()
		m.Run(func(c *Ctx) { c.CommAdd64(in, 1) })
		return nil
	}()
	if fw, ok := got.(*FrozenWriteError); !ok || fw.Addr != in {
		t.Errorf("Machine.Run recovered %v, want a *FrozenWriteError at %#x", got, in)
	}
}

// TestSweepPanicKeepsErrorType: an error a kernel panics with stays
// visible to errors.Is through the sweep result, with the message and
// Panicked unchanged.
func TestSweepPanicKeepsErrorType(t *testing.T) {
	sentinel := errors.New("kernel sentinel")
	res, err := Sweep([]RunSpec{{
		Make:    func() (Workload, error) { return &faultyKernel{panicWith: sentinel}, nil },
		Options: []Option{WithCores(2)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if !errors.Is(r.Err, sentinel) || !r.Panicked {
		t.Fatalf("err = %v (panicked %v), want the sentinel wrapped as a recovered panic", r.Err, r.Panicked)
	}
	if msg := r.Err.Error(); msg != "coup: sweep run panicked: kernel sentinel" {
		t.Errorf("message %q changed", msg)
	}
}
