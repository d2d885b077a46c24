package obs

import (
	"math"
	"math/bits"

	"repro/pkg/commute"
)

// Histogram is a log2-bucket value histogram over commute structures:
// bucket counts in a commute.Histogram, the running sum in a
// commute.Counter, exact extremes in a commute.MinMax. Observe touches
// only the caller's private shards; every read-side figure (quantiles,
// mean, the exposition block) is a reduce-on-demand.
//
// Bucket i holds values v with floor(log2(v)) == i: bucket 0 is v <= 1,
// bucket i (i >= 1) is 2^i <= v < 2^(i+1), and the last bucket absorbs
// everything at or beyond its lower bound. This is exactly coupd's
// BatchLenLog2 bucketing, promoted to a shared type.
type Histogram struct {
	name string
	help string
	bins int
	h    *commute.Histogram
	sum  *commute.Counter
	mm   *commute.MinMax
}

func newHistogram(name, help string, bins int) *Histogram {
	return &Histogram{
		name: name,
		help: help,
		bins: bins,
		h:    commute.NewHistogram(bins),
		sum:  commute.NewCounter(),
		mm:   commute.NewMinMax(),
	}
}

// NewHistogram builds a standalone (unregistered) histogram, for callers
// like swbench that want the bucketing and quantile math without a
// registry or a name.
func NewHistogram(bins int) *Histogram {
	if bins < 1 {
		panic("obs: histogram needs >= 1 bin")
	}
	return newHistogram("", "", bins)
}

// Bins returns the bucket count.
func (h *Histogram) Bins() int { return h.bins }

// bucketOf maps a value to its floor-log2 bucket, clamped to the bucket
// range. Negative values land in bucket 0 with v <= 1.
func (h *Histogram) bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= h.bins {
		b = h.bins - 1
	}
	return b
}

// Observe folds v into the calling goroutine's shards: one bucket
// increment, one sum add, one extremes fold — three update-only writes,
// no reduction.
//
//coup:hotpath
func (h *Histogram) Observe(v int64) {
	h.h.Add(h.bucketOf(v), 1)
	h.sum.Add(v)
	h.mm.Observe(v)
}

// Count reduces the total number of observations.
func (h *Histogram) Count() uint64 { return h.mm.N() }

// Sum reduces the running sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Value() }

// HistSnapshot is a reduced view of a Histogram, reusable across
// snapshots: Buckets is resized in place when capacity allows.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Min     int64 // exact observed minimum; 0 when Count == 0
	Max     int64 // exact observed maximum; 0 when Count == 0
	Buckets []uint64
}

// Snapshot reduces the histogram into s, reusing s.Buckets when it is
// large enough.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	s.Buckets = h.h.Snapshot(s.Buckets)
	s.Count = h.mm.N()
	s.Sum = h.sum.Value()
	min, ok := h.mm.Min()
	max, _ := h.mm.Max()
	if !ok {
		min, max = 0, 0
	}
	s.Min, s.Max = min, max
}

// Mean returns the mean observed value, or 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns bucket i's value range [lo, hi) under floor-log2
// bucketing, ignoring the last-bucket clamp.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 2
	}
	return math.Ldexp(1, i), math.Ldexp(1, i+1)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the log2 bucket holding the target rank, clamped
// to the exact observed [Min, Max]. With power-of-two-wide buckets the
// estimate is coarse by construction — within a factor of two — but the
// clamp makes p0 and p100 exact.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + n
		if float64(next) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - float64(cum)) / float64(n)
			v := lo + frac*(hi-lo)
			if v < float64(s.Min) {
				v = float64(s.Min)
			}
			if v > float64(s.Max) {
				v = float64(s.Max)
			}
			return v
		}
		cum = next
	}
	return float64(s.Max)
}

func (h *Histogram) expoName() string { return h.name }
func (h *Histogram) expoHelp() string { return h.help }

func (h *Histogram) writeExpo(b []byte) []byte {
	var s HistSnapshot
	h.Snapshot(&s)
	b = appendHeader(b, h.name, h.help, "histogram")
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		b = append(b, h.name...)
		b = append(b, `_bucket{le="`...)
		if i == h.bins-1 {
			b = append(b, "+Inf"...)
		} else {
			// Upper-inclusive integer bound of bucket i: 2^(i+1)-1.
			b = appendUint(b, uint64(1)<<uint(i+1)-1)
		}
		b = append(b, `"} `...)
		b = appendUint(b, cum)
		b = append(b, '\n')
	}
	b = append(b, h.name...)
	b = append(b, "_sum "...)
	b = appendInt(b, s.Sum)
	b = append(b, '\n')
	b = append(b, h.name...)
	b = append(b, "_count "...)
	b = appendUint(b, s.Count)
	b = append(b, '\n')
	return b
}
