package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile. A
// tail estimate that rests on fewer is one or two outliers, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, or an error when
// fewer than minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n, rank := len(xs), nearestRank(len(xs), q)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it, need %d",
			100*q, n, max(n-rank, 0), minBeyond)
	}
	return rankOf(xs, rank), nil
}

// nearestRank is the 1-based rank of the q-quantile of n samples.
func nearestRank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n))), 1)
}

// rankOf returns the rank-th smallest of xs.
func rankOf(xs []float64, rank int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the interpolation of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match that reference.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
