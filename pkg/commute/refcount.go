package commute

import (
	"sync"
	"sync/atomic"

	"repro/internal/ops"
)

// refShard is one private slice of the count. The shard mutex orders the
// count update with the indicator update and with escalation; it is
// uncontended as long as the shard stays P-private, so the fast path is
// one cheap lock plus two plain stores.
type refShard struct {
	mu        sync.Mutex
	n         int64
	escalated bool
	_         [ops.LineBytes - 24]byte
}

// RefCount is a reference counter with zero-detection escalation: the
// library form of the paper's COUP-vs-SNZI comparison (Sec 5.4). While an
// object is hot, increments and decrements are commutative updates
// buffered in private shards, and zero checks are served by a conservative
// SNZI-style indicator instead of a full fold: the root counts shards
// holding a nonzero value, so indicator == 0 proves the count is zero
// under the usual contract (a goroutine only decrements references it
// holds, and never resurrects from zero). When surpluses and deficits sit
// on different shards the indicator stays nonzero and detection is
// deferred — call Escalate (the percpu-ref "kill" moment, when the last
// known handle is dropped) to fold the shards into one exact central
// counter, after which Dec detects zero immediately.
type RefCount struct {
	mask    uint32
	mode    atomic.Uint32 // 0 = sharded fast path, 1 = escalated
	central atomic.Int64  // authoritative once escalated
	root    atomic.Int64  // SNZI-style: number of shards with n != 0
	zeroed  atomic.Bool   // dedupes the sharded-mode zero report
	big     sync.Mutex    // serializes escalation and exact folds
	shards  []refShard
}

// NewRefCount builds a counter holding no references.
func NewRefCount() *RefCount { return newRefCount(shardCount()) }

// newRefCount builds a counter with n shards, a power of two.
func newRefCount(n int) *RefCount {
	return &RefCount{mask: uint32(n - 1), shards: make([]refShard, n)}
}

// Inc adds one reference.
func (r *RefCount) Inc() { r.add(1) }

// add applies delta on the fast path. In sharded mode the shard count and
// the indicator move together under the shard lock; escalation is checked
// under the same lock, so a delta lands either in the shard (and is later
// folded) or in the central counter, never both and never neither.
//
//coup:hotpath
func (r *RefCount) add(delta int64) {
	if r.mode.Load() == 1 {
		r.central.Add(delta)
		return
	}
	t := tokenPool.Get().(*token)
	s := &r.shards[t.idx&r.mask]
	s.mu.Lock()
	if s.escalated {
		s.mu.Unlock()
		tokenPool.Put(t)
		r.central.Add(delta)
		return
	}
	old := s.n
	s.n = old + delta
	if (old == 0) != (s.n == 0) {
		if old == 0 {
			r.root.Add(1)
		} else {
			r.root.Add(-1)
		}
	}
	s.mu.Unlock()
	tokenPool.Put(t)
}

// Dec drops one reference and reports whether the count is now known to
// be zero. It reports the object's death at most once, and a true return
// is always correct. Before escalation the check runs through the
// conservative indicator (the counter self-escalates when the indicator
// proves zero), and cross-shard cancellation can defer detection until
// Escalate is called, after which Dec is exact.
func (r *RefCount) Dec() bool {
	if r.mode.Load() == 1 {
		return r.central.Add(-1) == 0 && !r.zeroed.Swap(true)
	}
	r.add(-1)
	if r.mode.Load() == 1 {
		// Raced with an escalation; the fold saw our delta.
		return r.central.Load() == 0 && !r.zeroed.Swap(true)
	}
	if r.root.Load() != 0 {
		return false
	}
	// Indicator hints every shard is individually zero. Confirm exactly;
	// only a confirmed zero escalates (the object is dead), so a transient
	// indicator read racing an in-flight transition cannot demote a live
	// counter off its sharded fast path.
	return r.zeroCheck() && !r.zeroed.Swap(true)
}

// zeroCheck verifies the indicator's zero hint exactly: it sums the
// shards and the central counter with every shard lock held. A confirmed
// zero folds and escalates (like Escalate); a refuted hint unlocks
// without changing modes.
func (r *RefCount) zeroCheck() bool {
	r.big.Lock()
	defer r.big.Unlock()
	if r.mode.Load() == 1 {
		return r.central.Load() == 0
	}
	// Holding all shard locks at once is deadlock-free: the fast paths
	// only ever hold one shard lock and acquire nothing else under it.
	sum := r.central.Load()
	for i := range r.shards {
		r.shards[i].mu.Lock()
		sum += r.shards[i].n
	}
	if sum != 0 {
		for i := range r.shards {
			r.shards[i].mu.Unlock()
		}
		return false
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.escalated = true
		if s.n != 0 {
			r.central.Add(s.n)
			r.root.Add(-1)
			s.n = 0
		}
		s.mu.Unlock()
	}
	r.mode.Store(1)
	return true
}

// Add adjusts the count by delta (for batched handoffs). Positive or
// negative; zero detection follows Dec's rules only for Dec, so batched
// decrements should finish with Dec if the caller needs the zero event.
func (r *RefCount) Add(delta int64) { r.add(delta) }

// read folds the shards and the central counter into the exact current
// count, under the same quiescence caveat as every reduction here.
func (r *RefCount) read() int64 {
	if r.mode.Load() == 1 {
		return r.central.Load()
	}
	r.big.Lock()
	defer r.big.Unlock()
	acc := r.central.Load()
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		acc += s.n
		s.mu.Unlock()
	}
	return acc
}

// Snapshot reduces the counter into dst and returns dst[:2], allocating
// only when cap(dst) < 2 — the same reuse-a-buffer signature as
// Histogram.Snapshot. The layout is [count, escalated]: dst[0] is the
// exact count and dst[1] is 1 once the counter has switched to exact
// central mode.
func (r *RefCount) Snapshot(dst []int64) []int64 {
	if cap(dst) < 2 {
		dst = make([]int64, 2)
	}
	dst = dst[:2]
	dst[0] = r.read()
	dst[1] = int64(r.mode.Load())
	return dst
}

// Escalate folds every shard into the central counter and switches the
// counter to exact mode permanently — the percpu-ref kill: call it when
// the object leaves its hot phase and exact zero detection starts to
// matter. It returns the count at the fold. Escalating twice is a no-op
// returning the current count.
func (r *RefCount) Escalate() int64 {
	r.big.Lock()
	defer r.big.Unlock()
	if r.mode.Load() == 1 {
		return r.central.Load()
	}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.escalated = true
		r.central.Add(s.n)
		if s.n != 0 {
			r.root.Add(-1)
		}
		s.n = 0
		s.mu.Unlock()
	}
	r.mode.Store(1)
	return r.central.Load()
}
