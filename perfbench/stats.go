package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// highestPercentile returns the highest tail percentile that leaves at
// least ten of n samples beyond it, or 0 when n is too small for even the
// median to qualify.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for even
// lengths) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
