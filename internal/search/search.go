// Package search implements the trial-scheduling algorithms listed in the
// PipeTune architecture (Figure 7): grid search, random search, HyperBand,
// genetic optimisation and a Bayesian-style surrogate search. The paper's
// evaluation uses HyperBand (§6); PipeTune inherits whichever searcher the
// underlying tuning library provides, so all five share one interface.
//
// Searchers follow an ask/tell protocol: Next returns a batch of
// suggestions to evaluate (the HPT runner may evaluate them in parallel),
// Observe reports their scores back, and Next returns nil once the search
// is exhausted. Scores are "higher is better"; the objective function is
// the runner's concern.
package search

import (
	"fmt"
	"math"
	"sort"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

// Suggestion is one proposed evaluation.
type Suggestion struct {
	// ID is unique within a searcher's lifetime.
	ID int
	// Assignment is the parameter point to evaluate.
	Assignment params.Assignment
	// BudgetFrac in (0,1] scales the training budget (epochs); HyperBand's
	// early rungs run at reduced budget, everything else at 1.
	BudgetFrac float64
}

// Report carries one completed evaluation.
type Report struct {
	ID    int
	Score float64
}

// Searcher is the ask/tell protocol described in the package comment.
// Implementations are not safe for concurrent use; the HPT runner
// serialises Next/Observe and parallelises only the evaluations.
type Searcher interface {
	Next() []Suggestion
	Observe([]Report)
}

// ---------------------------------------------------------------- grid ---

// Grid enumerates the full cartesian grid, optionally truncated.
type Grid struct {
	space  params.Space
	max    int
	cursor int
	nextID int
	batch  int
}

// NewGrid creates a grid searcher. maxTrials <= 0 means the full grid;
// batchSize <= 0 defaults to the remaining grid in one batch.
func NewGrid(space params.Space, maxTrials, batchSize int) (*Grid, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	size := space.Size()
	if maxTrials <= 0 || maxTrials > size {
		maxTrials = size
	}
	if batchSize <= 0 {
		batchSize = maxTrials
	}
	return &Grid{space: space, max: maxTrials, batch: batchSize}, nil
}

// Next implements Searcher.
func (g *Grid) Next() []Suggestion {
	if g.cursor >= g.max {
		return nil
	}
	end := g.cursor + g.batch
	if end > g.max {
		end = g.max
	}
	out := make([]Suggestion, 0, end-g.cursor)
	for ; g.cursor < end; g.cursor++ {
		out = append(out, Suggestion{ID: g.nextID, Assignment: g.space.At(g.cursor), BudgetFrac: 1})
		g.nextID++
	}
	return out
}

// Observe implements Searcher (grid search ignores scores).
func (g *Grid) Observe([]Report) {}

// -------------------------------------------------------------- random ---

// Random samples the space uniformly without replacement (until the space
// is exhausted, then with replacement).
type Random struct {
	space   params.Space
	n       int
	r       *xrand.Source
	nextID  int
	seen    map[string]bool
	emitted int
	batch   int
}

// NewRandom creates a random searcher proposing n points.
func NewRandom(space params.Space, n, batchSize int, r *xrand.Source) (*Random, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("search: random n=%d invalid", n)
	}
	if batchSize <= 0 {
		batchSize = n
	}
	return &Random{space: space, n: n, r: r, seen: make(map[string]bool, n), batch: batchSize}, nil
}

// Next implements Searcher.
func (s *Random) Next() []Suggestion {
	if s.emitted >= s.n {
		return nil
	}
	count := s.batch
	if s.emitted+count > s.n {
		count = s.n - s.emitted
	}
	out := make([]Suggestion, 0, count)
	for len(out) < count {
		a := s.space.Sample(s.r)
		key := a.Key()
		if s.seen[key] && len(s.seen) < s.space.Size() {
			continue // sample without replacement while possible
		}
		s.seen[key] = true
		out = append(out, Suggestion{ID: s.nextID, Assignment: a, BudgetFrac: 1})
		s.nextID++
	}
	s.emitted += count
	return out
}

// Observe implements Searcher (random search ignores scores).
func (s *Random) Observe([]Report) {}

// ----------------------------------------------------------- hyperband ---

// HyperBand implements Li et al.'s bandit-based search: brackets of
// successive halving over the budget dimension. It is the scheduler the
// paper selects for its evaluation (§6).
type HyperBand struct {
	space  params.Space
	r      *xrand.Source
	eta    float64
	maxR   float64
	nextID int

	brackets []*bracket
	cur      int
	pending  map[int]params.Assignment // suggestions awaiting reports
	scores   map[int]float64
}

type bracket struct {
	// configs still alive in this bracket, with their rung budget.
	configs []params.Assignment
	rung    int
	rungs   int     // total rungs in this bracket
	budget  float64 // current rung budget (epochs fraction of maxR)
}

// NewHyperBand creates a HyperBand searcher. maxResource is the maximum
// per-trial budget R in "units" (full budget = 1.0 emitted as BudgetFrac);
// eta is the halving rate (paper-standard 3).
func NewHyperBand(space params.Space, maxResource int, eta float64, r *xrand.Source) (*HyperBand, error) {
	return NewHyperBandIterations(space, maxResource, eta, 1, r)
}

// NewHyperBandIterations creates a HyperBand searcher that repeats the full
// bracket structure `iterations` times — the "infinite horizon" usage of
// Li et al., and how tuning libraries spend a sample budget larger than one
// bracket sweep (bigger search spaces warrant more iterations).
func NewHyperBandIterations(space params.Space, maxResource int, eta float64, iterations int, r *xrand.Source) (*HyperBand, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if maxResource < 1 {
		return nil, fmt.Errorf("search: hyperband maxResource=%d invalid", maxResource)
	}
	if eta <= 1 {
		return nil, fmt.Errorf("search: hyperband eta=%v invalid", eta)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("search: hyperband iterations=%d invalid", iterations)
	}
	hb := &HyperBand{
		space:   space,
		r:       r,
		eta:     eta,
		maxR:    float64(maxResource),
		pending: make(map[int]params.Assignment),
		scores:  make(map[int]float64),
	}
	sMax := int(math.Floor(math.Log(hb.maxR) / math.Log(eta)))
	for it := 0; it < iterations; it++ {
		for s := sMax; s >= 0; s-- {
			n := int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(eta, float64(s))))
			budget := hb.maxR * math.Pow(eta, -float64(s))
			configs := make([]params.Assignment, n)
			for i := range configs {
				configs[i] = space.Sample(r)
			}
			hb.brackets = append(hb.brackets, &bracket{
				configs: configs,
				rungs:   s + 1,
				budget:  budget,
			})
		}
	}
	return hb, nil
}

// Next implements Searcher.
func (hb *HyperBand) Next() []Suggestion {
	if len(hb.pending) > 0 {
		// Contract violation: Observe must precede the next ask. Returning
		// the pending work again keeps the system live rather than stuck.
		out := make([]Suggestion, 0, len(hb.pending))
		ids := make([]int, 0, len(hb.pending))
		for id := range hb.pending {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, Suggestion{ID: id, Assignment: hb.pending[id], BudgetFrac: hb.curBudgetFrac()})
		}
		return out
	}
	for hb.cur < len(hb.brackets) {
		b := hb.brackets[hb.cur]
		if b.rung >= b.rungs || len(b.configs) == 0 {
			hb.cur++
			continue
		}
		frac := b.budget / hb.maxR
		if frac > 1 {
			frac = 1
		}
		out := make([]Suggestion, 0, len(b.configs))
		for _, cfg := range b.configs {
			hb.pending[hb.nextID] = cfg
			out = append(out, Suggestion{ID: hb.nextID, Assignment: cfg, BudgetFrac: frac})
			hb.nextID++
		}
		return out
	}
	return nil
}

func (hb *HyperBand) curBudgetFrac() float64 {
	if hb.cur >= len(hb.brackets) {
		return 1
	}
	frac := hb.brackets[hb.cur].budget / hb.maxR
	if frac > 1 {
		frac = 1
	}
	return frac
}

// Observe implements Searcher: once all pending reports arrive, the current
// rung closes and the top 1/eta configurations advance with eta× budget.
func (hb *HyperBand) Observe(reports []Report) {
	for _, rep := range reports {
		if _, ok := hb.pending[rep.ID]; ok {
			hb.scores[rep.ID] = rep.Score
		}
	}
	if len(hb.scores) < len(hb.pending) || len(hb.pending) == 0 {
		return
	}
	// Rank the rung.
	type scored struct {
		a params.Assignment
		s float64
	}
	ranked := make([]scored, 0, len(hb.pending))
	ids := make([]int, 0, len(hb.pending))
	for id := range hb.pending {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ranked = append(ranked, scored{a: hb.pending[id], s: hb.scores[id]})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].s > ranked[j].s })

	b := hb.brackets[hb.cur]
	keep := int(math.Floor(float64(len(ranked)) / hb.eta))
	if keep < 1 {
		keep = 1
	}
	if b.rung+1 >= b.rungs {
		keep = 0 // bracket finished
	}
	survivors := make([]params.Assignment, 0, keep)
	for i := 0; i < keep; i++ {
		survivors = append(survivors, ranked[i].a)
	}
	b.configs = survivors
	b.rung++
	b.budget *= hb.eta
	hb.pending = make(map[int]params.Assignment)
	hb.scores = make(map[int]float64)
}

// ------------------------------------------------------------- genetic ---

// Genetic runs a (μ+λ)-style evolutionary search with tournament selection,
// uniform crossover and per-dimension mutation.
type Genetic struct {
	space       params.Space
	r           *xrand.Source
	popSize     int
	generations int
	mutationP   float64

	gen     int
	nextID  int
	pending map[int]params.Assignment
	scored  []scoredAssignment
	current []params.Assignment
}

type scoredAssignment struct {
	a params.Assignment
	s float64
}

// NewGenetic creates a genetic searcher.
func NewGenetic(space params.Space, popSize, generations int, r *xrand.Source) (*Genetic, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if popSize < 2 || generations < 1 {
		return nil, fmt.Errorf("search: genetic pop=%d gens=%d invalid", popSize, generations)
	}
	return &Genetic{
		space:       space,
		r:           r,
		popSize:     popSize,
		generations: generations,
		mutationP:   0.2,
		pending:     make(map[int]params.Assignment),
	}, nil
}

// Next implements Searcher.
func (g *Genetic) Next() []Suggestion {
	if g.gen >= g.generations {
		return nil
	}
	if len(g.pending) > 0 {
		return nil // awaiting Observe
	}
	if g.current == nil {
		if g.gen == 0 {
			g.current = make([]params.Assignment, g.popSize)
			for i := range g.current {
				g.current[i] = g.space.Sample(g.r)
			}
		} else {
			g.current = g.breed()
		}
	}
	out := make([]Suggestion, 0, len(g.current))
	for _, a := range g.current {
		g.pending[g.nextID] = a
		out = append(out, Suggestion{ID: g.nextID, Assignment: a, BudgetFrac: 1})
		g.nextID++
	}
	return out
}

// Observe implements Searcher.
func (g *Genetic) Observe(reports []Report) {
	for _, rep := range reports {
		if a, ok := g.pending[rep.ID]; ok {
			g.scored = append(g.scored, scoredAssignment{a: a, s: rep.Score})
			delete(g.pending, rep.ID)
		}
	}
	if len(g.pending) == 0 && g.current != nil {
		g.gen++
		g.current = nil
	}
}

// breed produces the next generation from all scored individuals so far.
func (g *Genetic) breed() []params.Assignment {
	tournament := func() params.Assignment {
		best := g.scored[g.r.Intn(len(g.scored))]
		for k := 0; k < 2; k++ {
			c := g.scored[g.r.Intn(len(g.scored))]
			if c.s > best.s {
				best = c
			}
		}
		return best.a
	}
	next := make([]params.Assignment, g.popSize)
	for i := range next {
		p1, p2 := tournament(), tournament()
		child := make(params.Assignment, len(g.space))
		for _, d := range g.space {
			v := p1[d.Name]
			if g.r.Float64() < 0.5 {
				v = p2[d.Name]
			}
			if g.r.Float64() < g.mutationP {
				v = d.Values[g.r.Intn(len(d.Values))]
			}
			child[d.Name] = v
		}
		next[i] = child
	}
	return next
}

// ------------------------------------------------------------ bayesian ---

// Bayesian is a lightweight surrogate-model searcher: after a random warmup
// it scores a pool of candidate points with a k-nearest-neighbour estimate
// of the objective plus an exploration bonus for sparsely observed regions,
// standing in for the Bayesian gradient optimisation of Figure 7.
type Bayesian struct {
	space   params.Space
	r       *xrand.Source
	n       int
	warmup  int
	batch   int
	nextID  int
	emitted int
	pending map[int]params.Assignment
	history []scoredAssignment
}

// NewBayesian creates a surrogate searcher proposing n points total.
func NewBayesian(space params.Space, n int, r *xrand.Source) (*Bayesian, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("search: bayesian n=%d invalid", n)
	}
	warmup := n / 3
	if warmup < 2 {
		warmup = 2
	}
	if warmup > n {
		warmup = n
	}
	return &Bayesian{space: space, r: r, n: n, warmup: warmup, batch: 2,
		pending: make(map[int]params.Assignment)}, nil
}

// normPoint converts an assignment to a vector of per-dimension value
// indices normalised to [0,1], the surrogate's feature space.
func (b *Bayesian) normPoint(a params.Assignment) []float64 {
	out := make([]float64, len(b.space))
	for i, d := range b.space {
		idx := 0
		for j, v := range d.Values {
			if v == a[d.Name] {
				idx = j
				break
			}
		}
		if len(d.Values) > 1 {
			out[i] = float64(idx) / float64(len(d.Values)-1)
		}
	}
	return out
}

// surrogate estimates a candidate's value from the 3 nearest observations
// plus an exploration bonus proportional to nearest-neighbour distance.
func (b *Bayesian) surrogate(a params.Assignment) float64 {
	p := b.normPoint(a)
	type nd struct {
		d float64
		s float64
	}
	ns := make([]nd, 0, len(b.history))
	for _, h := range b.history {
		q := b.normPoint(h.a)
		d := 0.0
		for i := range p {
			diff := p[i] - q[i]
			d += diff * diff
		}
		ns = append(ns, nd{d: math.Sqrt(d), s: h.s})
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].d < ns[j].d })
	k := 3
	if k > len(ns) {
		k = len(ns)
	}
	est, minD := 0.0, math.Inf(1)
	for i := 0; i < k; i++ {
		est += ns[i].s
		if ns[i].d < minD {
			minD = ns[i].d
		}
	}
	est /= float64(k)
	return est + 0.3*minD // exploration bonus
}

// Next implements Searcher.
func (b *Bayesian) Next() []Suggestion {
	if b.emitted >= b.n || len(b.pending) > 0 {
		if b.emitted >= b.n {
			return nil
		}
		return nil
	}
	count := b.batch
	if b.emitted < b.warmup {
		count = b.warmup - b.emitted
	}
	if b.emitted+count > b.n {
		count = b.n - b.emitted
	}
	out := make([]Suggestion, 0, count)
	for i := 0; i < count; i++ {
		var choice params.Assignment
		if len(b.history) < 2 {
			choice = b.space.Sample(b.r)
		} else {
			// Pick the best of a random candidate pool per the surrogate.
			best := math.Inf(-1)
			for c := 0; c < 16; c++ {
				cand := b.space.Sample(b.r)
				if s := b.surrogate(cand); s > best {
					best = s
					choice = cand
				}
			}
		}
		b.pending[b.nextID] = choice
		out = append(out, Suggestion{ID: b.nextID, Assignment: choice, BudgetFrac: 1})
		b.nextID++
		b.emitted++
	}
	return out
}

// Observe implements Searcher.
func (b *Bayesian) Observe(reports []Report) {
	for _, rep := range reports {
		if a, ok := b.pending[rep.ID]; ok {
			b.history = append(b.history, scoredAssignment{a: a, s: rep.Score})
			delete(b.pending, rep.ID)
		}
	}
}

// Compile-time interface checks.
var (
	_ Searcher = (*Grid)(nil)
	_ Searcher = (*Random)(nil)
	_ Searcher = (*HyperBand)(nil)
	_ Searcher = (*Genetic)(nil)
	_ Searcher = (*Bayesian)(nil)
)
