package gt

import (
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

// TestNewShardedDefendsConfig pins the constructor trap: a zero
// MinEntries must not leave the store unable to ever answer (it defaults
// to DefaultConfig's), whichever of the two constructors built it.
func TestNewShardedDefendsConfig(t *testing.T) {
	for _, s := range []*Memory{NewMemory(Config{Threshold: 2.0}), NewSharded(Config{Threshold: 2.0}, 1)} {
		for i := 0; i < 8; i++ {
			if err := s.Add(familyEntry(0, i, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Lookup(familyEntry(0, 1, 1).Features); !ok {
			t.Fatal("zero MinEntries left the store unable to answer")
		}
	}
}

var (
	voteP = params.SysConfig{Cores: 4, MemoryGB: 8}
	voteQ = params.SysConfig{Cores: 8, MemoryGB: 32}
)

func entryAt(x, y float64, sys params.SysConfig) Entry {
	return Entry{Features: []float64{x, y, 0, 1}, BestSys: sys, Metric: 0.5}
}

// storeOf adds the entries to a store of the given configuration.
func storeOf(t *testing.T, cfg Config, entries ...Entry) *Memory {
	t.Helper()
	s := NewMemory(cfg)
	for _, e := range entries {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLookupAnswersFromTheNeighbourhood: three entries at the origin won
// with P, two at x = 10 with Q. The store as a whole votes P, but a query
// at x = 10 has the Q entries at distance 0 and the P entries at 10, so
// its neighbourhood answers Q.
func TestLookupAnswersFromTheNeighbourhood(t *testing.T) {
	s := storeOf(t, DefaultConfig(),
		entryAt(0, 0, voteP), entryAt(0, 0, voteP), entryAt(0, 0, voteP),
		entryAt(10, 0, voteQ), entryAt(10, 0, voteQ),
	)
	if got, ok := s.Lookup([]float64{0, 0, 0, 1}); !ok || got != voteP {
		t.Fatalf("query at the P entries: (%v, %v), want (%v, true)", got, ok, voteP)
	}
	if got, ok := s.Lookup([]float64{10, 0, 0, 1}); !ok || got != voteQ {
		t.Fatalf("query at the Q entries: (%v, %v), want the neighbourhood's (%v, true)", got, ok, voteQ)
	}
}

// TestLookupIsTheNeighbourhoodVote: the query's nearest entry (distance 1)
// won with Q, and so did the store's majority, four entries 10 away. Two
// P entries sit 1.5 away, within twice the nearest distance, so the
// neighbourhood is one Q and two P, and P answers — not the nearest entry
// alone, and not the store's majority.
func TestLookupIsTheNeighbourhoodVote(t *testing.T) {
	s := storeOf(t, DefaultConfig(),
		entryAt(1, 0, voteQ),
		entryAt(0, 1.5, voteP), entryAt(0, -1.5, voteP),
		entryAt(10, 0, voteQ), entryAt(10, 1, voteQ), entryAt(10, -1, voteQ), entryAt(11, 0, voteQ),
	)
	if got, ok := s.Lookup([]float64{0, 0, 0, 1}); !ok || got != voteP {
		t.Fatalf("lookup = (%v, %v), want the neighbourhood's (%v, true)", got, ok, voteP)
	}
}

// TestLookupMissesBeyondThreshold: four entries ring the origin at
// distance 1, so the spread is 1. A query 3 away misses at Threshold 2
// and hits at Threshold 4.
func TestLookupMissesBeyondThreshold(t *testing.T) {
	ring := []Entry{entryAt(1, 0, voteP), entryAt(-1, 0, voteP), entryAt(0, 1, voteP), entryAt(0, -1, voteP)}
	far := []float64{4, 0, 0, 1} // 3 from the nearest entry
	if got, ok := storeOf(t, DefaultConfig(), ring...).Lookup(far); ok {
		t.Fatalf("query 3 spreads away hit %v at Threshold 2", got)
	}
	cfg := DefaultConfig()
	cfg.Threshold = 4
	if got, ok := storeOf(t, cfg, ring...).Lookup(far); !ok || got != voteP {
		t.Fatalf("at Threshold 4: (%v, %v), want (%v, true)", got, ok, voteP)
	}
}

// TestReplaceAnswersAsTheAdds: over seeded sequences of entries, a store
// that Replace filled — after other contents — answers every query, hit
// or miss, exactly as one that the same Adds filled.
func TestReplaceAnswersAsTheAdds(t *testing.T) {
	grid := probeGrid()
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		point := func() []float64 {
			f := make([]float64, 6)
			for i := range f {
				f[i] = float64(r.Intn(3))*5 + r.NormFloat64()
			}
			return f
		}
		entries := make([]Entry, 4+r.Intn(40))
		for i := range entries {
			entries[i] = Entry{Features: point(), BestSys: grid[r.Intn(len(grid))], Metric: r.Float64()}
		}
		added := NewMemory(DefaultConfig())
		for _, e := range entries {
			if err := added.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		replaced := NewMemory(DefaultConfig())
		for i := 0; i < 5; i++ {
			if err := replaced.Add(gtEntry(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := replaced.Replace(entries); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 50; q++ {
			query := point()
			if q%5 == 0 {
				query = entries[r.Intn(len(entries))].Features
			}
			ac, aok := added.Lookup(query)
			rc, rok := replaced.Lookup(query)
			if ac != rc || aok != rok {
				t.Fatalf("seed %d query %d: adds answer (%v, %v), Replace (%v, %v)", seed, q, ac, aok, rc, rok)
			}
		}
	}
}
