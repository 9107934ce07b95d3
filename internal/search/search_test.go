package search

import (
	"math"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

func testSpace() params.Space {
	return params.Space{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{10, 20}},
	}
}

// drain runs a searcher to exhaustion against the given objective and
// returns every (assignment, score) pair evaluated.
func drain(t *testing.T, s Searcher, objective func(params.Assignment) float64) []scoredAssignment {
	t.Helper()
	var all []scoredAssignment
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("searcher did not terminate")
		}
		batch := s.Next()
		if len(batch) == 0 {
			return all
		}
		reports := make([]Report, 0, len(batch))
		for _, sg := range batch {
			if sg.BudgetFrac <= 0 || sg.BudgetFrac > 1 {
				t.Fatalf("budget fraction %v out of (0,1]", sg.BudgetFrac)
			}
			score := objective(sg.Assignment)
			all = append(all, scoredAssignment{a: sg.Assignment, s: score})
			reports = append(reports, Report{ID: sg.ID, Score: score})
		}
		s.Observe(reports)
	}
}

// peaky is an objective maximised at a=3, b=20.
func peaky(a params.Assignment) float64 {
	return -math.Abs(a["a"]-3) - math.Abs(a["b"]-20)/10
}

func TestGridCoversSpace(t *testing.T) {
	g, err := NewGrid(testSpace(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, g, peaky)
	if len(got) != 6 {
		t.Fatalf("grid evaluated %d points, want 6", len(got))
	}
	seen := make(map[string]bool)
	for _, sa := range got {
		seen[sa.a.Key()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("grid repeated points: %d unique", len(seen))
	}
}

func TestGridTruncationAndBatching(t *testing.T) {
	g, err := NewGrid(testSpace(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Next()
	if len(first) != 3 {
		t.Fatalf("first batch %d, want 3", len(first))
	}
	second := g.Next()
	if len(second) != 1 {
		t.Fatalf("second batch %d, want 1", len(second))
	}
	if g.Next() != nil {
		t.Fatal("exhausted grid returned more work")
	}
}

func TestRandomWithoutReplacement(t *testing.T) {
	s, err := NewRandom(testSpace(), 6, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s, peaky)
	if len(got) != 6 {
		t.Fatalf("random evaluated %d, want 6", len(got))
	}
	seen := make(map[string]bool)
	for _, sa := range got {
		seen[sa.a.Key()] = true
	}
	if len(seen) != 6 {
		t.Fatalf("random repeated points before exhausting the space: %d unique", len(seen))
	}
}

func TestRandomValidation(t *testing.T) {
	if _, err := NewRandom(testSpace(), 0, 0, xrand.New(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewRandom(params.Space{{Name: "", Values: nil}}, 3, 0, xrand.New(1)); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestHyperBandStructure(t *testing.T) {
	hb, err := NewHyperBand(testSpace(), 9, 3, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// First rung of the most aggressive bracket runs many configs at the
	// lowest budget.
	batch := hb.Next()
	if len(batch) == 0 {
		t.Fatal("no first rung")
	}
	frac := batch[0].BudgetFrac
	if frac >= 1 {
		t.Fatalf("first bracket should start below full budget, got %v", frac)
	}

	reports := make([]Report, len(batch))
	for i, sg := range batch {
		reports[i] = Report{ID: sg.ID, Score: peaky(sg.Assignment)}
	}
	hb.Observe(reports)
	next := hb.Next()
	if len(next) >= len(batch) {
		t.Fatalf("successive halving did not shrink the rung: %d -> %d", len(batch), len(next))
	}
	if len(next) > 0 && next[0].BudgetFrac <= frac {
		t.Fatalf("budget did not grow: %v -> %v", frac, next[0].BudgetFrac)
	}
}

func TestHyperBandTerminatesAndFindsGood(t *testing.T) {
	hb, err := NewHyperBand(testSpace(), 9, 3, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, hb, peaky)
	if len(got) == 0 {
		t.Fatal("hyperband evaluated nothing")
	}
	best := math.Inf(-1)
	for _, sa := range got {
		if sa.s > best {
			best = sa.s
		}
	}
	// Optimum score is 0 at (3,20); a small space must find it.
	if best < -0.5 {
		t.Fatalf("hyperband best score %v too far from optimum 0", best)
	}
}

func TestHyperBandValidation(t *testing.T) {
	if _, err := NewHyperBand(testSpace(), 0, 3, xrand.New(1)); err == nil {
		t.Fatal("maxResource=0 accepted")
	}
	if _, err := NewHyperBand(testSpace(), 9, 1, xrand.New(1)); err == nil {
		t.Fatal("eta=1 accepted")
	}
}

func TestGeneticImprovesOverGenerations(t *testing.T) {
	// Use a bigger space so improvement is measurable.
	space := params.Space{
		{Name: "x", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}},
		{Name: "y", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}},
	}
	obj := func(a params.Assignment) float64 {
		return -(math.Abs(a["x"]-7) + math.Abs(a["y"]-7))
	}
	g, err := NewGenetic(space, 8, 6, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, g, obj)
	if len(got) != 8*6 {
		t.Fatalf("genetic evaluated %d, want 48", len(got))
	}
	firstGenBest, lastGenBest := math.Inf(-1), math.Inf(-1)
	for _, sa := range got[:8] {
		if sa.s > firstGenBest {
			firstGenBest = sa.s
		}
	}
	for _, sa := range got[len(got)-8:] {
		if sa.s > lastGenBest {
			lastGenBest = sa.s
		}
	}
	if lastGenBest < firstGenBest {
		t.Fatalf("last generation best %v worse than first %v", lastGenBest, firstGenBest)
	}
}

func TestGeneticValidation(t *testing.T) {
	if _, err := NewGenetic(testSpace(), 1, 3, xrand.New(1)); err == nil {
		t.Fatal("pop=1 accepted")
	}
	if _, err := NewGenetic(testSpace(), 4, 0, xrand.New(1)); err == nil {
		t.Fatal("generations=0 accepted")
	}
}

func TestBayesianConvergesTowardOptimum(t *testing.T) {
	space := params.Space{
		{Name: "x", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	obj := func(a params.Assignment) float64 { return -math.Abs(a["x"] - 8) }
	b, err := NewBayesian(space, 14, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, b, obj)
	if len(got) != 14 {
		t.Fatalf("bayesian evaluated %d, want 14", len(got))
	}
	// The post-warmup half should concentrate near the optimum more than
	// uniform sampling would: its mean score must beat the warmup mean.
	warmup, rest := got[:len(got)/2], got[len(got)/2:]
	mw, mr := 0.0, 0.0
	for _, sa := range warmup {
		mw += sa.s
	}
	for _, sa := range rest {
		mr += sa.s
	}
	mw /= float64(len(warmup))
	mr /= float64(len(rest))
	if mr < mw-0.5 {
		t.Fatalf("surrogate phase mean %v should not be worse than warmup %v", mr, mw)
	}
}

func TestBayesianValidation(t *testing.T) {
	if _, err := NewBayesian(testSpace(), 0, xrand.New(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestAllSearchersTerminate(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Searcher
	}{
		{"grid", func() Searcher { s, _ := NewGrid(testSpace(), 0, 2); return s }},
		{"random", func() Searcher { s, _ := NewRandom(testSpace(), 5, 2, xrand.New(1)); return s }},
		{"hyperband", func() Searcher { s, _ := NewHyperBand(testSpace(), 9, 3, xrand.New(1)); return s }},
		{"genetic", func() Searcher { s, _ := NewGenetic(testSpace(), 4, 3, xrand.New(1)); return s }},
		{"bayesian", func() Searcher { s, _ := NewBayesian(testSpace(), 7, xrand.New(1)); return s }},
	}
	for _, tc := range cases {
		s := tc.mk()
		got := drain(t, s, peaky)
		if len(got) == 0 {
			t.Fatalf("%s evaluated nothing", tc.name)
		}
		if s.Next() != nil {
			t.Fatalf("%s returned work after exhaustion", tc.name)
		}
	}
}

func TestSearchersAreDeterministic(t *testing.T) {
	run := func() []scoredAssignment {
		s, err := NewHyperBand(testSpace(), 9, 3, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, s, peaky)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].a.Key() != b[i].a.Key() {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}
