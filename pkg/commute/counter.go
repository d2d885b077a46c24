package commute

// Counter is a sharded 64-bit counter: the software form of the paper's
// Fig 1 contended counter, with COUP's asymmetry — adds are the cheap
// update-only path (one uncontended atomic add on a private line), reads
// pay the reduction. Deltas may be negative; the count wraps modulo 2^64
// exactly like ops.AddI64.
type Counter struct {
	mask   uint32
	shards []padWord
}

// NewCounter builds a counter at zero.
func NewCounter() *Counter {
	n := shardCount()
	return &Counter{mask: uint32(n - 1), shards: make([]padWord, n)}
}

// Add folds delta into the calling goroutine's shard: a single atomic
// add, uncontended as long as the shard stays P-private.
//
//coup:hotpath
func (c *Counter) Add(delta int64) {
	t := tokenPool.Get().(*token)
	c.shards[t.idx&c.mask].v.Add(uint64(delta))
	tokenPool.Put(t)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Dec subtracts one.
func (c *Counter) Dec() { c.Add(-1) }

// Value reduces the shards and returns the count. It observes every Add
// that happened-before the call.
func (c *Counter) Value() int64 {
	var acc uint64
	for i := range c.shards {
		acc += c.shards[i].v.Load()
	}
	return int64(acc)
}

// Snapshot reduces the counter into dst and returns dst[:1], allocating
// only when cap(dst) < 1: the wire-format read-side helper, sharing
// Histogram.Snapshot's reuse-a-buffer signature. dst[0] is Value().
func (c *Counter) Snapshot(dst []int64) []int64 {
	if cap(dst) < 1 {
		dst = make([]int64, 1)
	}
	dst = dst[:1]
	dst[0] = c.Value()
	return dst
}
