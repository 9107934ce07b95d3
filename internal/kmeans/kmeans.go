// Package kmeans implements Lloyd's algorithm with k-means++ seeding, the
// clustering of Figure 8: per-epoch profiles of the catalog's workloads
// grouped into k=2 clusters, as the paper's ground-truth phase clusters
// them (§5.4). The ground-truth store itself answers by nearest neighbour
// (internal/gt).
//
// The implementation mirrors scikit-learn's KMeans at the feature level:
// inertia (within-cluster sum of squared distances) and per-point
// cluster labels.
package kmeans

import (
	"errors"
	"fmt"

	"pipetune/internal/xrand"
)

// Model is a fitted clustering.
type Model struct {
	K         int         `json:"k"`
	Centroids [][]float64 `json:"centroids"`
	// Labels holds the cluster assignment of each training point, in
	// input order.
	Labels []int `json:"labels"`
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64 `json:"inertia"`
}

// Config controls fitting.
type Config struct {
	K        int
	MaxIters int
	// Restarts runs the whole fit multiple times and keeps the lowest
	// inertia, as scikit-learn's n_init does.
	Restarts int
}

// DefaultConfig mirrors the paper's k=2 with robust defaults.
func DefaultConfig() Config {
	return Config{K: 2, MaxIters: 100, Restarts: 4}
}

func sqDist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Fit clusters the points (each a d-dimensional vector) into cfg.K groups.
func Fit(points [][]float64, cfg Config, r *xrand.Source) (*Model, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: k=%d invalid", cfg.K)
	}
	if len(points) < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points < k=%d", len(points), cfg.K)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("kmeans: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if cfg.MaxIters < 1 {
		cfg.MaxIters = 100
	}
	if cfg.Restarts < 1 {
		cfg.Restarts = 1
	}

	var best *Model
	for restart := 0; restart < cfg.Restarts; restart++ {
		m := fitOnce(points, cfg, r)
		if best == nil || m.Inertia < best.Inertia {
			best = m
		}
	}
	return best, nil
}

// fitOnce runs k-means++ seeding plus Lloyd iterations.
func fitOnce(points [][]float64, cfg Config, r *xrand.Source) *Model {
	dim := len(points[0])
	centroids := seedPlusPlus(points, cfg.K, r)
	labels := make([]int, len(points))

	for iter := 0; iter < cfg.MaxIters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, sqDist(p, centroids[0])
			for c := 1; c < cfg.K; c++ {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, cfg.K)
		sums := make([][]float64, cfg.K)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			counts[labels[i]]++
			for d, v := range p {
				sums[labels[i]][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centroids[c], points[r.Intn(len(points))])
				changed = true
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	m := &Model{K: cfg.K, Centroids: centroids, Labels: labels}
	for i, p := range points {
		m.Inertia += sqDist(p, centroids[labels[i]])
	}
	return m
}

// seedPlusPlus picks initial centroids with the k-means++ distribution.
func seedPlusPlus(points [][]float64, k int, r *xrand.Source) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := make([]float64, len(points[0]))
	copy(first, points[r.Intn(len(points))])
	centroids = append(centroids, first)

	dists := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			d := sqDist(p, centroids[0])
			for _, c := range centroids[1:] {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			dists[i] = d
			total += d
		}
		var idx int
		if total == 0 {
			idx = r.Intn(len(points))
		} else {
			target := r.Float64() * total
			acc := 0.0
			for i, d := range dists {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		next := make([]float64, len(points[idx]))
		copy(next, points[idx])
		centroids = append(centroids, next)
	}
	return centroids
}
