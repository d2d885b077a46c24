package coupd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/pkg/commute"
)

// Kind names a served structure family, one per pkg/commute structure.
type Kind string

const (
	// KindCounter is a commute.Counter: ops inc, dec, add(delta).
	KindCounter Kind = "counter"
	// KindHist is a commute.Histogram: ops inc(bin), add(bin, delta).
	// The first update creates it with Update.Bins buckets (DefaultBins
	// when unset); later Bins values are ignored.
	KindHist Kind = "hist"
	// KindMinMax is a commute.MinMax: op observe(v).
	KindMinMax Kind = "minmax"
	// KindRefCount is a commute.RefCount: ops inc, dec,
	// add(delta), escalate.
	KindRefCount Kind = "refcount"
)

// Kinds lists the served kinds in wire order.
func Kinds() []Kind { return []Kind{KindCounter, KindHist, KindMinMax, KindRefCount} }

// DefaultBins sizes a histogram whose creating update carries no Bins.
const DefaultBins = 64

// MaxBins bounds create-time histogram sizes, so one bad record cannot
// allocate unbounded server memory.
const MaxBins = 1 << 20

// Typed errors, in the pkg/coup registry style: match with errors.Is,
// the wrapped messages carry specifics (which name, which op, what the
// valid set is).
var (
	// ErrUnknownKind is returned for Update.Kind values no structure
	// family answers to.
	ErrUnknownKind = errors.New("unknown kind")
	// ErrUnknownOp is returned for an op its kind does not serve.
	ErrUnknownOp = errors.New("unknown op")
	// ErrUnknownName is returned by snapshots of names never updated
	// (updates never see it: they create on first touch).
	ErrUnknownName = errors.New("unknown structure")
	// ErrKindMismatch is returned when an update names an existing
	// structure under a different kind.
	ErrKindMismatch = errors.New("kind mismatch")
	// ErrBadUpdate is returned for malformed records: empty or illegal
	// names, wrong argument count, out-of-range arguments.
	ErrBadUpdate = errors.New("invalid update")
	// ErrStaleSeq maps to 409: a sequenced batch's seq has fallen out of
	// its session's sliding ack window (or the session was evicted), so
	// the server can no longer tell whether it was applied.
	ErrStaleSeq = errors.New("stale seq: batch fell out of the dedup window")
	// ErrSaturated maps to 429: the in-flight batch semaphore is full.
	ErrSaturated = errors.New("saturated: too many in-flight batches")
	// ErrDraining maps to 503: the server is shutting down and accepts
	// no new batches.
	ErrDraining = errors.New("draining")
)

func kindNames() string {
	names := make([]string, len(Kinds()))
	for i, k := range Kinds() {
		names[i] = string(k)
	}
	return strings.Join(names, ", ")
}

// opsFor lists a kind's ops, for ErrUnknownOp messages.
func opsFor(k Kind) string {
	switch k {
	case KindCounter:
		return "inc, dec, add"
	case KindHist:
		return "inc, add"
	case KindMinMax:
		return "observe"
	case KindRefCount:
		return "inc, dec, add, escalate"
	}
	return ""
}

// entry is one named structure. Exactly one of the pointers is set,
// selected by kind; the structures themselves are safe for any
// concurrency, so entries are shared freely once published.
type entry struct {
	kind Kind
	c    *commute.Counter
	h    *commute.Histogram
	m    *commute.MinMax
	r    *commute.RefCount
}

// Registry maps names to structures with create-on-first-update
// semantics. The name table is a sync.Map — the hot path is a read of a
// long-lived name, creation is rare — and every method is safe for
// concurrent use.
type Registry struct {
	entries sync.Map // string -> *entry
	created *commute.Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{created: commute.NewCounter()}
}

// Len returns the number of structures created so far.
func (g *Registry) Len() int { return int(g.created.Value()) }

// Names returns every structure name, sorted.
func (g *Registry) Names() []string {
	var names []string
	g.entries.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// parseKind resolves a wire kind name.
func parseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(s, string(k)) {
			return k, nil
		}
	}
	return "", fmt.Errorf("coupd: %w %q (have: %s)", ErrUnknownKind, s, kindNames())
}

// maxNameLen bounds the strings a batch asks the server to keep: a
// structure name, and the client id a session is stored under.
const maxNameLen = 256

// validName bounds what a structure may be called: non-empty, at most
// maxNameLen bytes, no '/' (names travel in URL paths).
func validName(name string) error {
	if name == "" || len(name) > maxNameLen || strings.ContainsRune(name, '/') {
		return fmt.Errorf("coupd: %w: bad structure name %q (need 1-%d bytes, no '/')", ErrBadUpdate, name, maxNameLen)
	}
	return nil
}

// lookup returns the entry for an update's name, creating it on first
// touch. A creation race is settled by LoadOrStore: the loser's
// structure is discarded before any update lands in it.
func (g *Registry) lookup(u *Update) (*entry, error) {
	if e, ok := g.entries.Load(u.Name); ok {
		ent := e.(*entry)
		if !strings.EqualFold(u.Kind, string(ent.kind)) {
			return nil, fmt.Errorf("coupd: %w: structure %q is %q, update says %q", ErrKindMismatch, u.Name, ent.kind, u.Kind)
		}
		return ent, nil
	}
	kind, err := parseKind(u.Kind)
	if err != nil {
		return nil, err
	}
	if err := validName(u.Name); err != nil {
		return nil, err
	}
	ent := &entry{kind: kind}
	switch kind {
	case KindCounter:
		ent.c = commute.NewCounter()
	case KindHist:
		bins := u.Bins
		if bins <= 0 {
			bins = DefaultBins
		}
		if bins > MaxBins {
			return nil, fmt.Errorf("coupd: %w: histogram %q wants %d bins, max %d", ErrBadUpdate, u.Name, bins, MaxBins)
		}
		ent.h = commute.NewHistogram(bins)
	case KindMinMax:
		ent.m = commute.NewMinMax()
	case KindRefCount:
		ent.r = commute.NewRefCount()
	}
	if prev, loaded := g.entries.LoadOrStore(u.Name, ent); loaded {
		ent = prev.(*entry)
		if ent.kind != kind {
			return nil, fmt.Errorf("coupd: %w: structure %q is %q, update says %q", ErrKindMismatch, u.Name, ent.kind, u.Kind)
		}
		return ent, nil
	}
	g.created.Inc()
	return ent, nil
}

// args checks an update's argument arity.
func args(u *Update, want int) error {
	if len(u.Args) != want {
		return fmt.Errorf("coupd: %w: %s/%s wants %d args, got %d", ErrBadUpdate, u.Kind, u.Op, want, len(u.Args))
	}
	return nil
}

// Apply lands one update: the fan-in from a wire record to the sharded
// cell's update-only fast path.
//
//coup:hotpath
func (g *Registry) Apply(u *Update) error {
	ent, err := g.lookup(u)
	if err != nil {
		return err
	}
	return ent.apply(u, false)
}

// validate resolves one update — creating its structure on first touch,
// exactly like Apply would — and runs every check Apply runs, without
// mutating any value. It returns the resolved entry so a following wet
// apply can skip the lookup. Because the checks are deterministic in
// (entry, record) and a structure's kind never changes once created, a
// wet apply over a record validate accepted cannot fail.
func (g *Registry) validate(u *Update) (*entry, error) {
	ent, err := g.lookup(u)
	if err != nil {
		return nil, err
	}
	if err := ent.apply(u, true); err != nil {
		return nil, err
	}
	return ent, nil
}

// apply checks one update against this entry and, unless dry, lands it.
// The dry pass is the validate half of the sequenced batches'
// validate-then-apply contract: every check runs, nothing mutates.
//
//coup:hotpath
func (e *entry) apply(u *Update, dry bool) error {
	ent := e
	switch ent.kind {
	case KindCounter:
		switch u.Op {
		case "inc":
			if err := args(u, 0); err != nil {
				return err
			}
			if !dry {
				ent.c.Inc()
			}
		case "dec":
			if err := args(u, 0); err != nil {
				return err
			}
			if !dry {
				ent.c.Dec()
			}
		case "add":
			if err := args(u, 1); err != nil {
				return err
			}
			if !dry {
				ent.c.Add(u.Args[0])
			}
		default:
			return fmt.Errorf("coupd: %w %q for counter %q (have: %s)", ErrUnknownOp, u.Op, u.Name, opsFor(KindCounter))
		}
	case KindHist:
		var bin, delta int64
		switch u.Op {
		case "inc":
			if err := args(u, 1); err != nil {
				return err
			}
			bin, delta = u.Args[0], 1
		case "add":
			if err := args(u, 2); err != nil {
				return err
			}
			bin, delta = u.Args[0], u.Args[1]
		default:
			return fmt.Errorf("coupd: %w %q for hist %q (have: %s)", ErrUnknownOp, u.Op, u.Name, opsFor(KindHist))
		}
		if bin < 0 || bin >= int64(ent.h.Bins()) {
			return fmt.Errorf("coupd: %w: hist %q bin %d out of range [0, %d)", ErrBadUpdate, u.Name, bin, ent.h.Bins())
		}
		if delta < 0 {
			return fmt.Errorf("coupd: %w: hist %q negative delta %d", ErrBadUpdate, u.Name, delta)
		}
		if !dry {
			ent.h.Add(int(bin), uint64(delta))
		}
	case KindMinMax:
		if u.Op != "observe" {
			return fmt.Errorf("coupd: %w %q for minmax %q (have: %s)", ErrUnknownOp, u.Op, u.Name, opsFor(KindMinMax))
		}
		if err := args(u, 1); err != nil {
			return err
		}
		if !dry {
			ent.m.Observe(u.Args[0])
		}
	case KindRefCount:
		switch u.Op {
		case "inc":
			if err := args(u, 0); err != nil {
				return err
			}
			if !dry {
				ent.r.Inc()
			}
		case "dec":
			if err := args(u, 0); err != nil {
				return err
			}
			if !dry {
				ent.r.Dec()
			}
		case "add":
			if err := args(u, 1); err != nil {
				return err
			}
			if !dry {
				ent.r.Add(u.Args[0])
			}
		case "escalate":
			if err := args(u, 0); err != nil {
				return err
			}
			if !dry {
				ent.r.Escalate()
			}
		default:
			return fmt.Errorf("coupd: %w %q for refcount %q (have: %s)", ErrUnknownOp, u.Op, u.Name, opsFor(KindRefCount))
		}
	}
	return nil
}

// snapScratch is one snapshot request's reduction buffers and response
// body, pooled by the server so steady-state snapshots reuse the
// pkg/commute no-alloc read-side helpers and one response buffer.
type snapScratch struct {
	i64  []int64
	u64  []uint64
	body []byte
}

// maxPooledBins caps the pooled reduction buffer at maxPooledBody bytes.
const maxPooledBins = maxPooledBody / 8

// reset empties the scratch for reuse, dropping buffers a huge histogram
// grew past the pool caps. Truncating matters too: a pooled scratch that
// kept its length would hand the next Get a view of this request's
// partial sums.
func (sc *snapScratch) reset() {
	if cap(sc.u64) > maxPooledBins {
		sc.u64 = nil
	}
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	sc.i64, sc.u64, sc.body = sc.i64[:0], sc.u64[:0], sc.body[:0]
}

// Snapshot reduces one structure into out using scratch buffers. The
// histogram bin slice in out aliases sc.u64 — callers must serialize the
// response before reusing sc.
//
// Not //coup:hotpath: the reductions grow sc on first use (make escapes),
// so the zero-alloc claim only holds once the pooled scratch has warmed
// up — an amortized property the per-call contract cannot express.
func (g *Registry) Snapshot(name string, sc *snapScratch, out *Snapshot) error {
	// Load's key box stays on the stack ("name does not escape" per
	// -gcflags=-m); -escapes re-verifies this line every CI run.
	e, ok := g.entries.Load(name) //coup:alloc-ok
	if !ok {
		return fmt.Errorf("coupd: %w %q", ErrUnknownName, name)
	}
	ent := e.(*entry)
	*out = Snapshot{Name: name, Kind: string(ent.kind)}
	switch ent.kind {
	case KindCounter:
		sc.i64 = ent.c.Snapshot(sc.i64)
		out.Value = sc.i64[0]
	case KindHist:
		sc.u64 = ent.h.Snapshot(sc.u64)
		out.Bins = sc.u64
		for _, v := range sc.u64 {
			out.Total += v
		}
	case KindMinMax:
		sc.i64 = ent.m.Snapshot(sc.i64)
		out.N = uint64(sc.i64[0])
		if out.N > 0 {
			out.Min, out.Max = sc.i64[1], sc.i64[2]
		}
	case KindRefCount:
		sc.i64 = ent.r.Snapshot(sc.i64)
		out.Value = sc.i64[0]
		out.Escalated = sc.i64[1] == 1
	}
	return nil
}
