package commute

import (
	"math"
	"sync/atomic"

	"repro/internal/ops"
)

// minmaxShard tracks one shard's running extremes plus an observation
// count, padded to its own cache line.
type minmaxShard struct {
	n   atomic.Uint64
	min atomic.Int64
	max atomic.Int64
	_   [ops.LineBytes - 24]byte
}

// MinMax tracks the minimum and maximum of observed int64 values. Min and
// max are idempotent commutative ops — the degenerate case where COUP's
// update buffering shines brightest, because a value that does not improve
// the running extreme completes as a pure load with no write at all (the
// software image of a silent U hit).
type MinMax struct {
	mask   uint32
	shards []minmaxShard
}

// NewMinMax builds an empty tracker: shards start at the min and max
// identities (math.MaxInt64 and math.MinInt64), so untouched shards never
// win the fold.
func NewMinMax() *MinMax {
	n := shardCount()
	m := &MinMax{mask: uint32(n - 1), shards: make([]minmaxShard, n)}
	for i := range m.shards {
		m.shards[i].min.Store(math.MaxInt64)
		m.shards[i].max.Store(math.MinInt64)
	}
	return m
}

// Observe folds v into the calling goroutine's shard. The extremes are
// installed before the observation count, so a reader that sees n > 0 is
// guaranteed to see at least one real value, never a bare identity.
//
//coup:hotpath
func (m *MinMax) Observe(v int64) {
	t := tokenPool.Get().(*token)
	s := &m.shards[t.idx&m.mask]
	for {
		cur := s.min.Load()
		if v >= cur || s.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	s.n.Add(1)
	tokenPool.Put(t)
}

// N reduces the observation count.
func (m *MinMax) N() uint64 {
	var n uint64
	for i := range m.shards {
		n += m.shards[i].n.Load()
	}
	return n
}

// Min reduces the shards' minima. ok is false when nothing has been
// observed.
func (m *MinMax) Min() (v int64, ok bool) {
	v = math.MaxInt64
	for i := range m.shards {
		if s := m.shards[i].min.Load(); s < v {
			v = s
		}
		ok = ok || m.shards[i].n.Load() > 0
	}
	return v, ok
}

// Max reduces the shards' maxima. ok is false when nothing has been
// observed.
func (m *MinMax) Max() (v int64, ok bool) {
	v = math.MinInt64
	for i := range m.shards {
		if s := m.shards[i].max.Load(); s > v {
			v = s
		}
		ok = ok || m.shards[i].n.Load() > 0
	}
	return v, ok
}

// Snapshot reduces the tracker into dst and returns dst[:3], allocating
// only when cap(dst) < 3 — the same reuse-a-buffer signature as
// Histogram.Snapshot. The layout is [n, min, max]; when n is 0 nothing
// has been observed and min/max hold the fold identities
// (math.MaxInt64 / math.MinInt64), exactly as Min and Max report ok=false.
func (m *MinMax) Snapshot(dst []int64) []int64 {
	if cap(dst) < 3 {
		dst = make([]int64, 3)
	}
	dst = dst[:3]
	var n uint64
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range m.shards {
		s := &m.shards[i]
		n += s.n.Load()
		if v := s.min.Load(); v < mn {
			mn = v
		}
		if v := s.max.Load(); v > mx {
			mx = v
		}
	}
	dst[0], dst[1], dst[2] = int64(n), mn, mx
	return dst
}
