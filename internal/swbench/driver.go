package swbench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/pkg/commute"
)

// Driver is one implementation under test, decoupled from how updates
// reach it: the in-process drivers below call pkg/commute (or a baseline)
// directly, the HTTP driver ships the same traffic to a coupd server in
// batched requests. Run builds one Driver per measured run and asks it for
// one Worker per goroutine.
type Driver interface {
	// Worker returns the handle goroutine id drives its share of the
	// traffic through. Workers are not safe for concurrent use; distinct
	// workers are.
	Worker(id int) Worker
	// Total reduces the driven structures and returns the number of
	// updates applied through this driver instance (for drivers over
	// pre-existing state, the delta since construction), so Run can check
	// equivalence against the op count it issued.
	Total() (uint64, error)
	// Close releases driver resources after Total has been read.
	Close() error
}

// Worker is one goroutine's handle on a Driver. Update and Read mirror
// the simulator workloads' op mix; Flush commits any client-side buffered
// updates and is called once per worker inside the timed region, after
// its last Update.
type Worker interface {
	Update(cell int)
	Read(cell int) uint64
	Flush() error
}

// DriverMaker builds the Driver for one Run. cells is the resolved target
// count (Config.Cells for counters, Config.Bins for histograms).
type DriverMaker func(c Config, cells int) (Driver, error)

// Typed errors for implementation and kind lookups, in the pkg/coup
// registry style: match with errors.Is, the message lists what exists.
var (
	// ErrUnknownImpl is returned for implementation names not in Impls.
	ErrUnknownImpl = errors.New("unknown impl")
	// ErrUnknownKind is returned for workload-shape names not in Kinds.
	ErrUnknownKind = errors.New("unknown kind")
)

// ParseImpl resolves an implementation name case-insensitively.
func ParseImpl(s string) (Impl, error) {
	for _, i := range Impls() {
		if strings.EqualFold(s, string(i)) {
			return i, nil
		}
	}
	return "", fmt.Errorf("swbench: %w %q (have: %s)", ErrUnknownImpl, s, joinNames(Impls()))
}

// ParseKind resolves a workload-shape name case-insensitively.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(s, string(k)) {
			return k, nil
		}
	}
	return "", fmt.Errorf("swbench: %w %q (have: %s)", ErrUnknownKind, s, joinNames(Kinds()))
}

func joinNames[T ~string](names []T) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return strings.Join(out, ", ")
}

// updater is the in-process form of a driver: one shared structure serves
// every worker directly, so the Worker methods live on the structure
// adapter itself (single dispatch on the hot path) and Flush is a no-op.
type updater interface {
	Worker
	total() uint64
}

// sharedDriver adapts an updater: every worker is the same shared handle.
type sharedDriver struct{ u updater }

func (d sharedDriver) Worker(int) Worker      { return d.u }
func (d sharedDriver) Total() (uint64, error) { return d.u.total(), nil }
func (d sharedDriver) Close() error           { return nil }

// noFlush marks in-process updaters, whose updates are never buffered.
type noFlush struct{}

func (noFlush) Flush() error { return nil }

// newInProcDriver is the default DriverMaker: the pkg/commute structures
// and their conventional baselines, selected by Config.Impl.
func newInProcDriver(c Config, cells int) (Driver, error) {
	switch c.Impl {
	case ImplCommute:
		if c.Kind == KindHist {
			return sharedDriver{&commuteHist{h: commute.NewHistogram(cells)}}, nil
		}
		u := &commuteCells{cs: make([]*commute.Counter, cells)}
		for i := range u.cs {
			u.cs[i] = commute.NewCounter()
		}
		return sharedDriver{u}, nil
	case ImplAtomic:
		if c.Kind == KindHist {
			return sharedDriver{&atomicHist{vs: make([]atomic.Uint64, cells)}}, nil
		}
		return sharedDriver{&atomicCells{vs: make([]padCell, cells)}}, nil
	case ImplMutex:
		return sharedDriver{&mutexCells{vs: make([]uint64, cells)}}, nil
	}
	_, err := ParseImpl(string(c.Impl))
	return nil, err
}

// commuteCells: one sharded counter per cell.
type commuteCells struct {
	noFlush
	cs []*commute.Counter
}

func (u *commuteCells) Update(cell int)      { u.cs[cell].Add(1) }
func (u *commuteCells) Read(cell int) uint64 { return uint64(u.cs[cell].Value()) }
func (u *commuteCells) total() uint64 {
	var s uint64
	for _, c := range u.cs {
		s += uint64(c.Value())
	}
	return s
}

// commuteHist: one sharded histogram.
type commuteHist struct {
	noFlush
	h *commute.Histogram
}

func (u *commuteHist) Update(cell int)      { u.h.Inc(cell) }
func (u *commuteHist) Read(cell int) uint64 { return u.h.Bin(cell) }
func (u *commuteHist) total() uint64 {
	var s uint64
	for _, v := range u.h.Snapshot(nil) {
		s += v
	}
	return s
}

// padCell pads counter-kind atomic cells to a line each (distinct
// counters should contend only when traffic collides, as in the
// simulator's one-counter-per-line layout); histogram-kind baselines
// deliberately stay packed, sharing lines like the real shared array.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

type atomicCells struct {
	noFlush
	vs []padCell
}

func (u *atomicCells) Update(cell int)      { u.vs[cell].v.Add(1) }
func (u *atomicCells) Read(cell int) uint64 { return u.vs[cell].v.Load() }
func (u *atomicCells) total() uint64 {
	var s uint64
	for i := range u.vs {
		s += u.vs[i].v.Load()
	}
	return s
}

// atomicHist is the packed shared histogram updated with atomic adds —
// bins share cache lines, exactly like the OpenCV/TBB shared array the
// paper's MESI baseline models.
type atomicHist struct {
	noFlush
	vs []atomic.Uint64
}

func (u *atomicHist) Update(cell int)      { u.vs[cell].Add(1) }
func (u *atomicHist) Read(cell int) uint64 { return u.vs[cell].Load() }
func (u *atomicHist) total() uint64 {
	var s uint64
	for i := range u.vs {
		s += u.vs[i].Load()
	}
	return s
}

type mutexCells struct {
	noFlush
	mu sync.Mutex
	vs []uint64
}

func (u *mutexCells) Update(cell int) {
	u.mu.Lock()
	u.vs[cell]++
	u.mu.Unlock()
}

func (u *mutexCells) Read(cell int) uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.vs[cell]
}

func (u *mutexCells) total() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	var s uint64
	for _, v := range u.vs {
		s += v
	}
	return s
}
