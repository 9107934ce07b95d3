package gt

import (
	"testing"

	"pipetune/internal/kmeans"
)

func TestKMeansSimilarityGroupsFamilies(t *testing.T) {
	s := newKMeansSimilarity(kmeans.DefaultConfig(), 2.0, 1)
	var points [][]float64
	for i := 0; i < 4; i++ {
		points = append(points, featuresOf(t, lenetMNIST, uint64(i)))
		points = append(points, featuresOf(t, cnnNews, uint64(i)))
	}
	if err := s.fit(points); err != nil {
		t.Fatal(err)
	}
	if s.groups() != 2 {
		t.Fatalf("groups = %d, want 2", s.groups())
	}
	// Even indices (lenet) share a group; odd (cnn) share the other.
	if s.groupOf(0) != s.groupOf(2) || s.groupOf(1) != s.groupOf(3) {
		t.Fatal("family members split across groups")
	}
	if s.groupOf(0) == s.groupOf(1) {
		t.Fatal("families collapsed")
	}
	// A new lenet profile matches the lenet group confidently.
	group, _, ok := s.match(featuresOf(t, lenetMNIST, 99))
	if !ok || group != s.groupOf(0) {
		t.Fatalf("match = (%d, %v), want lenet group %d", group, ok, s.groupOf(0))
	}
}

func TestKMeansSimilarityUnfit(t *testing.T) {
	s := newKMeansSimilarity(kmeans.DefaultConfig(), 2.0, 1)
	if _, _, ok := s.match([]float64{1, 2}); ok {
		t.Fatal("unfit model matched")
	}
	if s.groups() != 0 {
		t.Fatal("unfit model has groups")
	}
	if err := s.fit([][]float64{{1}}); err == nil {
		t.Fatal("fit with fewer points than k accepted")
	}
}
