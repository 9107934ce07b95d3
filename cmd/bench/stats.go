package main

import (
	"sort"

	"pipetune/internal/stats"
)

// metric is one reported number. N is the sample count behind a timing
// (0 for counts and ratios); it travels in the detail report only — the
// driver's result line carries value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so one slow request cannot be
// the whole tail.
const minBeyond = 10

// reportable says whether n samples support the p-th percentile.
func reportable(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond
}

// percentileOf returns the p-th percentile of xs, and false when the
// percentile rule forbids reporting it from len(xs) samples.
func percentileOf(xs []float64, p float64) (float64, bool) {
	if !reportable(len(xs), p) {
		return 0, false
	}
	v, err := stats.Percentile(xs, p)
	return v, err == nil
}

// median is the 50th percentile without the rule (a median of few
// samples is still the best single number for them); 0 for no samples.
func median(xs []float64) float64 {
	v, err := stats.Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return v
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default exclusive method), which is how the driver computes the A/A
// spread; fewer than two samples yield the sample itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the A/A noise measure: interquartile distance over median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// interval is a half-open time range in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

// coverage returns how much of clip the intervals cover, counting
// overlapping stretches once — the "time covered by children" of the
// self-time rule.
func coverage(clip interval, ivs []interval) int64 {
	cut := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < clip.start {
			iv.start = clip.start
		}
		if iv.end > clip.end {
			iv.end = clip.end
		}
		if iv.end > iv.start {
			cut = append(cut, iv)
		}
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i].start < cut[j].start })
	var total, reach int64
	reach = clip.start
	for _, iv := range cut {
		if iv.start > reach {
			reach = iv.start
		}
		if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}
