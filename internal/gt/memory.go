package gt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
)

// Memory is the in-memory ground-truth store: one mutex over one list of
// entries in insertion order. It keeps no model; Lookup answers from the
// entries themselves.
type Memory struct {
	cfg Config

	mu      sync.Mutex
	entries []Entry
	// sum and sumSq are Σx and Σ‖x‖² over the entries' features, the
	// running totals the spread is read from. len(sum) is the store's
	// feature width, 0 while it is empty.
	sum    []float64
	sumSq  float64
	rev    uint64 // data revision: every Add and Replace bumps it
	hits   int
	misses int
	// near and tally are Lookup's scratch, reused under mu.
	near  []neighbour
	tally []ballot
	met   *storeInstruments
}

// neighbour is one entry the lookup pass kept: its index and squared
// distance to the query.
type neighbour struct {
	i int
	d float64
}

// ballot is one configuration's votes in a neighbourhood.
type ballot struct {
	sys params.SysConfig
	n   int
	sum float64 // Σ Metric of its voters
}

// NewMemory creates an empty store. A MinEntries of zero or less takes
// DefaultConfig's.
func NewMemory(cfg Config) *Memory {
	if cfg.MinEntries <= 0 {
		cfg.MinEntries = DefaultConfig().MinEntries
	}
	return &Memory{cfg: cfg}
}

// NewSharded is NewMemory under the name the end-to-end benchmark
// (cmd/bench) calls; the seed is unused, since the store has none. It
// goes when cmd/bench may change again (ROADMAP item 18).
func NewSharded(cfg Config, seed uint64) *Memory { return NewMemory(cfg) }

// InstrumentMetrics implements Instrumentable.
func (s *Memory) InstrumentMetrics(reg *metrics.Registry) {
	if m := newStoreInstruments(reg); m != nil {
		s.mu.Lock()
		s.met = m
		s.mu.Unlock()
	}
}

// width is the feature width every entry in the store has, 0 when it is
// empty.
func (s *Memory) width() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sum)
}

// Add implements Store: the entry is validated against the store's width
// and appended under the lock.
func (s *Memory) Add(e Entry) error {
	cp := e.clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.met != nil {
		start := time.Now()
		defer func() { s.met.addSeconds.Observe(time.Since(start).Seconds()) }()
	}
	if err := cp.validate(len(s.sum)); err != nil {
		return err
	}
	s.appendLocked(cp)
	s.rev++
	return nil
}

// appendLocked appends an entry and folds it into the running totals.
// Callers hold s.mu.
func (s *Memory) appendLocked(e Entry) {
	if s.sum == nil {
		s.sum = make([]float64, len(e.Features))
	}
	for i, x := range e.Features {
		s.sum[i] += x
		s.sumSq += x * x
	}
	s.entries = append(s.entries, e)
}

// spread is the RMS distance of the entries to their mean. Callers hold
// s.mu and the store is not empty.
func (s *Memory) spread() float64 {
	n := float64(len(s.entries))
	v := s.sumSq / n
	for _, x := range s.sum {
		m := x / n
		v -= m * m
	}
	return math.Sqrt(math.Max(v, 0))
}

// Lookup implements Store.
func (s *Memory) Lookup(features []float64) (params.SysConfig, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	sys, ok := s.lookupLocked(features)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	if m := s.met; m != nil {
		m.lookupSeconds.Observe(time.Since(start).Seconds())
		if ok {
			m.hits.Inc()
		} else {
			m.misses.Inc()
		}
	}
	return sys, ok
}

// lookupLocked is the store's one rule. With fewer than MinEntries
// entries, or a query of another width, it misses. Otherwise let d₁ be
// the squared distance from the query to its nearest entry: the query
// misses when √d₁ exceeds Threshold × the spread, and hits with the vote
// of the entries within squared distance 4·d₁ (twice the nearest
// distance). The configuration most of them won takes it, ties going to
// the lower mean relative-advantage metric, then to the lexicographically
// first configuration (ballot.beats). Callers hold s.mu.
func (s *Memory) lookupLocked(q []float64) (params.SysConfig, bool) {
	if len(s.entries) < s.cfg.MinEntries || len(q) != len(s.sum) {
		return params.SysConfig{}, false
	}
	// One pass keeps every entry within 4× the nearest squared distance
	// so far; the nearest only shrinks, so none of the final
	// neighbourhood is dropped.
	near, d1 := s.near[:0], math.Inf(1)
	for i := range s.entries {
		if d, ok := sqDistWithin(q, s.entries[i].Features, 4*d1); ok {
			near = append(near, neighbour{i, d})
			d1 = math.Min(d1, d)
		}
	}
	s.near = near
	if math.Sqrt(d1) > s.cfg.Threshold*s.spread() {
		return params.SysConfig{}, false
	}
	tally := s.tally[:0]
	for _, nb := range near {
		if nb.d > 4*d1 {
			continue
		}
		e := &s.entries[nb.i]
		j := 0
		for j < len(tally) && tally[j].sys != e.BestSys {
			j++
		}
		if j == len(tally) {
			tally = append(tally, ballot{sys: e.BestSys})
		}
		tally[j].n++
		tally[j].sum += e.Metric
	}
	s.tally = tally
	best := tally[0]
	for _, b := range tally[1:] {
		if b.beats(best) {
			best = b
		}
	}
	return best.sys, true
}

// beats reports whether b wins a vote against c: more votes, then the
// lower mean metric, then the lexicographically first configuration.
func (b ballot) beats(c ballot) bool {
	if b.n != c.n {
		return b.n > c.n
	}
	if bm, cm := b.sum/float64(b.n), c.sum/float64(c.n); bm != cm {
		return bm < cm
	}
	return b.sys.String() < c.sys.String()
}

// sqDistWithin is the squared Euclidean distance between a and b, given
// up (ok=false) as soon as the partial sum exceeds bound.
func sqDistWithin(a, b []float64, bound float64) (float64, bool) {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > bound {
			return sum, false
		}
	}
	return sum, true
}

// Info implements Store.
func (s *Memory) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{Entries: len(s.entries), Hits: s.hits, Misses: s.misses, Rev: s.rev}
}

// Entries implements Store.
func (s *Memory) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.clone()
	}
	return out
}

// Replace implements Store: the entries are validated and copied before
// the lock is taken, then swapped in with their running totals rebuilt in
// insertion order, as the same Adds would have left them.
func (s *Memory) Replace(entries []Entry) error {
	next := NewMemory(s.cfg)
	for i, e := range entries {
		cp := e.clone()
		if err := cp.validate(len(next.sum)); err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		next.appendLocked(cp)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries, s.sum, s.sumSq = next.entries, next.sum, next.sumSq
	s.rev++
	return nil
}

var _ Store = (*Memory)(nil)
