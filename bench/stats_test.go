package main

import (
	"math"
	"testing"
)

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which the spread check of the benchmark's users
// applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.41}, 0.29, 0.31, 0.35},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.xs), c.med) {
			t.Errorf("%v: quartiles %g, %g median %g; want %g, %g median %g",
				c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
	if sp := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(sp, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", sp)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: selection must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p, v float64
		ok   bool
	}{
		{19, 0, 0, false}, // the median has only 9 samples beyond it
		{20, 50, 10, true},
		{99, 50, 50, true},  // p90 would leave 9 beyond
		{100, 90, 90, true}, // exactly 10 beyond p90
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
		{1000000, 99.9, 999000, true}, // the ladder stops at p99.9
	} {
		p, v, n, ok := tail(seq(c.n))
		if ok != c.ok || n != c.n || (ok && (p != c.p || v != c.v)) {
			t.Errorf("n=%d: tail = p%g %g n=%d ok=%t; want p%g %g ok=%t", c.n, p, v, n, ok, c.p, c.v, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}
