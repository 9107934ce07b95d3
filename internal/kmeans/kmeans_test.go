package kmeans

import (
	"math"
	"testing"
	"testing/quick"

	"pipetune/internal/xrand"
)

// twoBlobs generates n points split between two well-separated Gaussians.
func twoBlobs(r *xrand.Source, n int) (points [][]float64, truth []int) {
	points = make([][]float64, n)
	truth = make([]int, n)
	for i := range points {
		c := i % 2
		cx := float64(c) * 10
		points[i] = []float64{cx + r.NormFloat64(), cx + r.NormFloat64()}
		truth[i] = c
	}
	return points, truth
}

func TestSeparatesTwoBlobs(t *testing.T) {
	r := xrand.New(1)
	points, truth := twoBlobs(r, 200)
	m, err := Fit(points, DefaultConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Labels must be a relabelling of the truth: agreement either direct
	// or inverted should be near-perfect.
	agree := 0
	for i := range truth {
		if m.Labels[i] == truth[i] {
			agree++
		}
	}
	frac := float64(agree) / float64(len(truth))
	if frac < 0.98 && frac > 0.02 {
		t.Fatalf("cluster agreement %.2f; blobs not separated", frac)
	}
}

func TestInertiaDecreasesWithBetterK(t *testing.T) {
	r := xrand.New(3)
	points, _ := twoBlobs(r, 200)
	m1, err := Fit(points, Config{K: 1, MaxIters: 50, Restarts: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(points, Config{K: 2, MaxIters: 50, Restarts: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Inertia >= m1.Inertia {
		t.Fatalf("k=2 inertia %v not below k=1 inertia %v", m2.Inertia, m1.Inertia)
	}
}

func TestMembersWithinFewRadii(t *testing.T) {
	r := xrand.New(9)
	points, _ := twoBlobs(r, 300)
	m, err := Fit(points, DefaultConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	// A cluster's radius is the RMS distance of its members to its
	// centroid.
	ssq, size := make([]float64, m.K), make([]int, m.K)
	for i, p := range points {
		ssq[m.Labels[i]] += sqDist(p, m.Centroids[m.Labels[i]])
		size[m.Labels[i]]++
	}
	outliers := 0
	for i, p := range points {
		c := m.Labels[i]
		if sqDist(p, m.Centroids[c]) > 9*ssq[c]/float64(size[c]) {
			outliers++
		}
	}
	if outliers > len(points)/20 {
		t.Fatalf("%d/%d members beyond 3 radii", outliers, len(points))
	}
}

func TestFitValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := Fit(nil, DefaultConfig(), r); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, Config{K: 2}, r); err == nil {
		t.Fatal("fewer points than k accepted")
	}
	if _, err := Fit([][]float64{{1}, {2}}, Config{K: 0}, r); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Fit([][]float64{{}, {}}, Config{K: 1}, r); err == nil {
		t.Fatal("zero-dim points accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, Config{K: 1}, r); err == nil {
		t.Fatal("ragged points accepted")
	}
}

func TestSinglePointPerCluster(t *testing.T) {
	r := xrand.New(2)
	points := [][]float64{{0, 0}, {100, 100}}
	m, err := Fit(points, Config{K: 2, MaxIters: 10, Restarts: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Inertia > 1e-9 {
		t.Fatalf("two points, two clusters: inertia %v should be 0", m.Inertia)
	}
	if m.Labels[0] == m.Labels[1] {
		t.Fatal("distinct points share a cluster")
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	r := xrand.New(4)
	points := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	m, err := Fit(points, Config{K: 2, MaxIters: 10, Restarts: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Inertia > 1e-9 {
		t.Fatalf("identical points: inertia %v", m.Inertia)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() *Model {
		r := xrand.New(42)
		points, _ := twoBlobs(r, 100)
		m, err := Fit(points, DefaultConfig(), r)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Inertia != b.Inertia {
		t.Fatalf("same seed, different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different labels")
		}
	}
}

// Property: every point has a label in range, and inertia equals the sum
// of the points' squared distances to their clusters' centroids.
func TestQuickModelInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%80 + 4
		r := xrand.New(seed)
		points, _ := twoBlobs(r, n)
		m, err := Fit(points, Config{K: 2, MaxIters: 30, Restarts: 1}, r)
		if err != nil {
			return false
		}
		if len(m.Labels) != n {
			return false
		}
		sum := 0.0
		for i, p := range points {
			if l := m.Labels[i]; l < 0 || l >= 2 {
				return false
			}
			sum += sqDist(p, m.Centroids[m.Labels[i]])
		}
		return math.Abs(sum-m.Inertia) <= 1e-6*(1+m.Inertia)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
