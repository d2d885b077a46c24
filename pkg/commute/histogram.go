package commute

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ops"
)

// histShard is one private copy of the bucket vector. Buckets within a
// shard share lines (they share a P, so that is locality, not false
// sharing); the slice length is rounded up to whole cache lines so
// neighbouring shards' vectors never share a line.
type histShard struct {
	counts []atomic.Uint64
}

// Histogram is a sharded bucket-count vector: the hist family of the
// paper (Fig 2, Fig 10a, Fig 12) as a library structure. Add is a vector
// element's update-only fast path; Snapshot is the reduction that
// privatization schemes run after the loop and COUP runs on demand.
type Histogram struct {
	bins   int
	mask   uint32
	shards []histShard
}

// NewHistogram builds a histogram with bins zeroed buckets. It panics
// when bins < 1.
func NewHistogram(bins int) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("commute: histogram needs >= 1 bin, got %d", bins))
	}
	n := shardCount()
	h := &Histogram{bins: bins, mask: uint32(n - 1), shards: make([]histShard, n)}
	const wordsPerLine = ops.LineBytes / 8
	padded := (bins + wordsPerLine - 1) / wordsPerLine * wordsPerLine
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, padded)
	}
	return h
}

// Bins returns the bucket count.
func (h *Histogram) Bins() int { return h.bins }

// Add folds delta into bucket bin on the calling goroutine's shard.
//
//coup:hotpath
func (h *Histogram) Add(bin int, delta uint64) {
	t := tokenPool.Get().(*token)
	h.shards[t.idx&h.mask].counts[bin].Add(delta)
	tokenPool.Put(t)
}

// Inc adds one to bucket bin.
func (h *Histogram) Inc(bin int) { h.Add(bin, 1) }

// Bin reduces one bucket across the shards. It is a partial reduction:
// only the requested element is folded, the way a word-granular reduction
// unit would serve a single-word read.
func (h *Histogram) Bin(bin int) uint64 {
	var acc uint64
	for i := range h.shards {
		acc += h.shards[i].counts[bin].Load()
	}
	return acc
}

// Snapshot reduces every bucket into dst and returns it, allocating when
// dst is too small. It observes every Add that happened-before the call.
func (h *Histogram) Snapshot(dst []uint64) []uint64 {
	if cap(dst) < h.bins {
		dst = make([]uint64, h.bins)
	}
	dst = dst[:h.bins]
	for i := range dst {
		dst[i] = 0
	}
	for s := range h.shards {
		counts := h.shards[s].counts
		for i := 0; i < h.bins; i++ {
			dst[i] += counts[i].Load()
		}
	}
	return dst
}
