package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, averaging the two middle values
// when len(xs) is even (Python's statistics.median); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match those computed with it. It needs at least
// two samples; with one, both quartiles are that sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps float error in p*n/100 from pushing an exact rank up
// by one (99.9% of 10000 is rank 9990, not 9991).
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailLadder lists the percentiles a timing distribution may report, highest
// last.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile for it
// to mean anything.
const minBeyond = 10

// tail picks the highest percentile of tailLadder that leaves at least
// minBeyond samples beyond it (above its nearest rank), and returns that
// percentile, its value and the sample count. ok is false when even the
// median has fewer than minBeyond samples beyond it.
func tail(xs []float64) (p, v float64, n int, ok bool) {
	n = len(xs)
	for _, cand := range tailLadder {
		if n-rank(cand, n) < minBeyond {
			break
		}
		p, ok = cand, true
	}
	if !ok {
		return 0, math.NaN(), n, false
	}
	return p, percentile(xs, p), n, true
}
