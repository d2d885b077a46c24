package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPermilleIsHighestWithTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 990}, {999, 950}, {200, 950}, {199, 900}, {100, 900},
		{99, 750}, {40, 750}, {39, 500}, {5, 500},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 20; n <= 5000; n++ {
		pm := tailPermille(n)
		if beyond := n * (1000 - pm) / 1000; beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, float64(pm)/10, beyond)
		}
		for _, higher := range tailLadder {
			if higher > pm && n*(1000-higher)/1000 >= minBeyond {
				t.Fatalf("n=%d: chose p%g but p%g also has %d beyond", n, float64(pm)/10, float64(higher)/10, minBeyond)
			}
		}
	}
}

func TestSummarizeUsesTheRule(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(ds)
	if s.n != 1000 || s.tailPct != 99 || math.Abs(s.p50-500.5) > 1e-9 || math.Abs(s.tail-990.01) > 1e-9 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(ds[:150]); s.tailPct != 90 {
		t.Fatalf("150 samples: tail at p%g, want p90", s.tailPct)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10.0, 10.5, 9.75, 11.0, 10.25, 10.1, 9.9}, 9.9, 10.1, 10.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestFastDecileIgnoresStalls(t *testing.T) {
	// 100 samples of 1 ms, five of them stalled for 100 ms more.
	secs := make([]float64, 100)
	for i := range secs {
		secs[i] = 0.001
		if i%20 == 0 {
			secs[i] += 0.1
		}
	}
	if got := fastDecile(secs); got != 0.001 {
		t.Fatalf("fastDecile = %v, want 0.001", got)
	}
}
