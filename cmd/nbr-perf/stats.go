package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// xs by the rule Python's statistics.quantiles(xs, n=4) uses (the
// "exclusive" method), so the spreads this command prints are the ones
// the benchmark driver computes. Fewer than two samples collapse to the
// single value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile reads quantile q of an ascending latency sample.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
