package commute

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ops"
)

// padWord is one shard slot: a 64-bit word alone on its cache line, so
// shards never false-share — the software requirement matching the
// protocol's one-line-per-U-copy granularity.
type padWord struct {
	v atomic.Uint64
	_ [ops.LineBytes - 8]byte
}

// token carries a goroutine's preferred shard index between calls. Tokens
// live in a sync.Pool, whose per-P caching is what biases a goroutine
// toward "its" shard: the pool hands back the slot last used on the
// current P, so updates from one P keep hitting one shard — the software
// image of the line staying in that core's private cache in U state. The
// authoritative data lives in the shard arrays, never in the token, so a
// token dropped by the garbage collector loses nothing: the next update
// just draws a fresh index.
type token struct{ idx uint32 }

var tokenPool = sync.Pool{New: func() any { return &token{idx: rand.Uint32()} }}

// shardCount is the shard count of every structure: the next power of two
// >= GOMAXPROCS at construction time, the software analogue of one U copy
// per private cache. A power of two lets an update pick its shard with a
// mask.
func shardCount() int {
	return 1 << bits.Len(uint(runtime.GOMAXPROCS(0)-1))
}
