package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of xs (sorted ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(r, 0), len(sorted)-1)]
}

// beyond counts the samples of n that lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevels are the percentiles a timing may be reported at, highest
// first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailLevel is the highest reportable percentile for n samples: the
// highest level with at least ten samples beyond it.
func tailLevel(n int) (float64, bool) {
	for _, q := range tailLevels {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// median of xs; xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}
