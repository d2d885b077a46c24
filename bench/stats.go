package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the percentile ladder, in permille, that tail latencies
// are chosen from. The guide this benchmark follows asks for "the highest
// percentile that has at least ten samples beyond it": with too few
// samples a p99 is one or two outliers, not a tail. The ladder stops at
// p99 because a p99.9 on a shared two-core host moves by more than any
// bound worth gating on.
var tailLadder = []int{990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPermille picks the highest ladder percentile with at least
// minBeyond of n samples beyond it. Below 2*minBeyond samples no
// percentile at or above the median qualifies, and the median is used.
func tailPermille(n int) int {
	for _, pm := range tailLadder {
		if n*(1000-pm)/1000 >= minBeyond {
			return pm
		}
	}
	return 500
}

// percentile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between the closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// latencySummary is a timing reported as its median and tail.
type latencySummary struct {
	p50, tail float64 // milliseconds
	tailPct   float64 // the percentile tail was taken at
	n         int
}

func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	pm := tailPermille(len(ms))
	return latencySummary{
		p50:     percentile(ms, 0.5),
		tail:    percentile(ms, float64(pm)/1000),
		tailPct: float64(pm) / 10,
		n:       len(ms),
	}
}

func (l latencySummary) metrics(prefix string) []metric {
	return []metric{
		{prefix + "_p50_ms", l.p50, "ms"},
		{prefix + "_tail_ms", l.tail, "ms"},
		{prefix + "_tail_pct", l.tailPct, "pct"},
		{prefix + "_samples", float64(l.n), "count"},
	}
}

// fastDecile is the 10th percentile of sample durations. Throughput is
// taken at the fastest tenth of equal-work samples: on a shared host the
// slower samples measure the neighbours' load as much as this code, and
// the fastest tenth repeats from run to run where the median does not.
func fastDecile(secs []float64) float64 {
	s := append([]float64(nil), secs...)
	sort.Float64s(s)
	return percentile(s, 0.1)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, including its clamping, so the spreads
// -repeat prints are the ones an outside check computes from the same
// values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
