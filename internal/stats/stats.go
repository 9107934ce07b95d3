// Package stats provides the small numerical toolkit shared by the
// simulators and the experiment harness: means, percentiles,
// trapezoidal integration (used for energy estimation, §3.2 of the paper)
// and simple vector operations used by the profiling pipeline.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for empty input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// TrapezoidUniform integrates evenly spaced samples with spacing dx.
func TrapezoidUniform(y []float64, dx float64) float64 {
	if len(y) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(y); i++ {
		total += dx * (y[i] + y[i-1]) / 2
	}
	return total
}

// Log1pScale maps each value through log1p, compressing the many-orders-of-
// magnitude spread of hardware-counter readings (Figure 2 spans 1e2..1e8)
// before clustering.
func Log1pScale(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = 0
		}
		out[i] = math.Log1p(x)
	}
	return out
}

// RelDiffPercent returns (value-baseline)/baseline*100, the transformation
// used by Figures 3 and 5 ("difference [%]" against a baseline run).
// A zero baseline yields 0 to keep plots well-defined.
func RelDiffPercent(value, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (value - baseline) / baseline * 100
}
