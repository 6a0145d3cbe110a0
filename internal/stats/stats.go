// Package stats provides the small statistical toolkit the
// experiment harnesses use: summaries of repeated measurements
// (multi-seed runs) and error aggregation for validation tables; and
// LatencyHist, the latency histogram the engine and the fleet
// aggregator export their quantiles from.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes a Summary; it panics on an empty sample (caller
// bug).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String renders "mean ± std [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f [%.2f, %.2f] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// MeanAbs returns the mean of absolute values — the error metric the
// paper's Table 7 caption defines.
func MeanAbs(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Abs(x)
	}
	return sum / float64(len(xs))
}

// Correlation returns the Pearson correlation of two equal-length
// samples; it panics on mismatched or short inputs (caller bug).
// Used to check that profiler estimates track ground truth across
// categories, not just on average.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: correlation needs two equal samples of >= 2")
	}
	mx := Summarize(xs).Mean
	my := Summarize(ys).Mean
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
