package gt

import (
	"fmt"

	"pipetune/internal/kmeans"
	"pipetune/internal/stats"
	"pipetune/internal/xrand"
)

// kmeansSimilarity is a shard's similarity model, the paper's k-means
// (§5.4: "we do settle on k-means in the current implementation"): it
// groups historical profiles into clusters and answers, for a new
// profile, which cluster it belongs to and whether the match is confident
// enough to reuse that cluster's configuration (an unconfident match
// triggers probing, §5.6).
type kmeansSimilarity struct {
	cfg       kmeans.Config
	threshold float64
	rng       *xrand.Source
	model     *kmeans.Model
}

// newKMeansSimilarity builds an unfitted model. threshold scales each
// cluster's RMS radius when deciding confidence.
func newKMeansSimilarity(cfg kmeans.Config, threshold float64, seed uint64) *kmeansSimilarity {
	return &kmeansSimilarity{cfg: cfg, threshold: threshold, rng: xrand.New(seed)}
}

// fit rebuilds the model from the training features.
func (s *kmeansSimilarity) fit(features [][]float64) error {
	if len(features) < s.cfg.K {
		s.model = nil
		return fmt.Errorf("gt: %d profiles < k=%d", len(features), s.cfg.K)
	}
	model, err := kmeans.Fit(features, s.cfg, s.rng)
	if err != nil {
		s.model = nil
		return err
	}
	s.model = model
	return nil
}

// groups returns the number of clusters after the last fit.
func (s *kmeansSimilarity) groups() int {
	if s.model == nil {
		return 0
	}
	return s.model.K
}

// groupOf returns the fitted cluster of training point i.
func (s *kmeansSimilarity) groupOf(i int) int {
	if s.model == nil || i < 0 || i >= len(s.model.Labels) {
		return 0
	}
	return s.model.Labels[i]
}

// match returns the nearest centroid's cluster and the query's distance
// to that centroid, confident when the distance is within threshold × the
// cluster's RMS radius (with a fallback radius for degenerate
// single-member clusters).
func (s *kmeansSimilarity) match(query []float64) (cluster int, dist float64, ok bool) {
	if s.model == nil {
		return 0, 0, false
	}
	cluster, dist, err := s.model.Predict(query)
	if err != nil {
		return 0, 0, false
	}
	radius, err := s.model.Radius(cluster)
	if err != nil {
		return 0, 0, false
	}
	if radius == 0 {
		radius = s.centroidScale() * 0.05
	}
	return cluster, dist, radius != 0 && dist <= s.threshold*radius
}

// centroidScale returns the mean pairwise centroid distance.
func (s *kmeansSimilarity) centroidScale() float64 {
	cs := s.model.Centroids
	total, n := 0.0, 0
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			d, err := stats.EuclideanDistance(cs[i], cs[j])
			if err != nil {
				continue
			}
			total += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
