package kmeans

import (
	"testing"

	"pipetune/internal/xrand"
)

func benchPoints(n, dim int) [][]float64 {
	r := xrand.New(7)
	points := make([][]float64, n)
	for i := range points {
		c := float64(i%2) * 10
		p := make([]float64, dim)
		for d := range p {
			p[d] = c + r.NormFloat64()
		}
		points[i] = p
	}
	return points
}

func BenchmarkFit384x58(b *testing.B) {
	// The Figure 8 shape: 384 profiles of 58 features.
	points := benchPoints(384, 58)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(points, DefaultConfig(), r); err != nil {
			b.Fatal(err)
		}
	}
}
