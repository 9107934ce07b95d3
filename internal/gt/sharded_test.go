package gt

import (
	"sync"
	"testing"
	"time"

	"pipetune/internal/params"
)

// TestShardedSplitsIntoFamilies grows the store past splitSize with
// well-separated families and checks the shard map partitions them:
// lookups still resolve to per-family configurations, and the store
// reports more than one shard.
func TestShardedSplitsIntoFamilies(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	const families, perFamily = 4, 16
	for i := 0; i < perFamily; i++ {
		for f := 0; f < families; f++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	info := s.Info()
	if info.Shards < 2 {
		t.Fatalf("store never sharded: %d shards after %d entries", info.Shards, info.Entries)
	}
	for f := 0; f < families; f++ {
		q := familyEntry(f, 99, families).Features
		if s.nearest(q) == nil {
			t.Fatalf("family %d routed nowhere", f)
		}
		cfgGot, ok := s.Lookup(q)
		if !ok {
			t.Fatalf("family %d missed after sharding", f)
		}
		want := probeGrid()[f%len(probeGrid())]
		if cfgGot != want {
			t.Fatalf("family %d resolved to %v, want %v", f, cfgGot, want)
		}
	}
	if info.Entries != families*perFamily {
		t.Fatalf("splits lost entries: %d, want %d", info.Entries, families*perFamily)
	}
	// Insertion order must survive the splits.
	entries := s.Entries()
	if len(entries) != families*perFamily {
		t.Fatalf("Entries() lost records: %d", len(entries))
	}
	if entries[0].Features[2] != 0 || entries[1].Features[2] != 1 {
		t.Fatal("Entries() lost insertion order across shards")
	}
}

// TestLookupProceedsDuringInflightAdd is the regression test for the old
// design's defect: GroundTruth.Lookup held the database's one exclusive
// mutex across the full distance computation, so a lookup stalled behind
// any in-flight Add (and its eager refit). Here an Add is simulated
// mid-flight by holding one shard's write lock while lookups run — both
// on a different shard and on the locked shard itself (whose model
// snapshot is current) — and every lookup must complete.
func TestLookupProceedsDuringInflightAdd(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	const families = 2
	for i := 0; i < splitSize/families; i++ { // the last add splits the families apart
		for f := 0; f < families; f++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm every shard's model so the hot path has a current snapshot.
	for f := 0; f < families; f++ {
		if _, ok := s.Lookup(familyEntry(f, 0, families).Features); !ok {
			t.Fatalf("family %d missed during warmup", f)
		}
	}

	// Simulate an Add in flight on family 1's shard: Add holds exactly
	// this lock while it appends.
	busy := s.nearest(familyEntry(1, 0, families).Features)
	if busy == nil {
		t.Fatal("no shard for family 1")
	}
	busy.mu.Lock()
	defer busy.mu.Unlock()

	done := make(chan bool, 2)
	go func() {
		_, ok := s.Lookup(familyEntry(0, 3, families).Features) // other shard
		done <- ok
	}()
	go func() {
		_, ok := s.Lookup(familyEntry(1, 3, families).Features) // busy shard, warm model
		done <- ok
	}()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Error("lookup missed during in-flight add")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("lookup blocked behind an in-flight Add")
		}
	}
}

// TestShardedConcurrentAddsDontContendAcrossFamilies hammers adds and
// lookups across distinct families concurrently; the store must keep
// every entry, stay race-free (run under -race) and keep serving hits.
func TestShardedConcurrentAddsDontContendAcrossFamilies(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	const families, perFamily = 4, 50
	// Seed each family so lookups during the storm can hit.
	for f := 0; f < families; f++ {
		for i := 0; i < 4; i++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < families; f++ {
		wg.Add(2)
		go func(f int) { // adder for this family
			defer wg.Done()
			for i := 4; i < perFamily; i++ {
				if err := s.Add(familyEntry(f, i, families)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(f)
		go func(f int) { // lookup storm on the same family
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Lookup(familyEntry(f, i, families).Features)
			}
		}(f)
	}
	wg.Wait()
	info := s.Info()
	if info.Entries != families*perFamily {
		t.Fatalf("concurrent adds lost entries: %d, want %d", info.Entries, families*perFamily)
	}
	if info.Hits == 0 {
		t.Fatal("no hits during the concurrent storm")
	}
}

// TestNewShardedDefendsConfig pins the constructor trap: a zero
// MinEntries must not leave the store unable to ever fit (it defaults to
// DefaultConfig's).
func TestNewShardedDefendsConfig(t *testing.T) {
	s := NewSharded(Config{Threshold: 2.0}, 1) // MinEntries 0
	for i := 0; i < 8; i++ {
		if err := s.Add(familyEntry(0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Lookup(familyEntry(0, 1, 1).Features); !ok {
		t.Fatal("zero MinEntries left the store permanently unfitted")
	}
}

// neighbourhoodStore fits one shard on two families: the given members
// near the origin, and four entries of a third configuration far away, so
// k-means gives the near members a cluster of their own.
func neighbourhoodStore(t *testing.T, near []Entry) *Sharded {
	t.Helper()
	s := NewSharded(DefaultConfig(), 1)
	far := params.SysConfig{Cores: 16, MemoryGB: 32}
	for i := 0; i < 4; i++ {
		near = append(near, Entry{Features: []float64{1000 + float64(i), 1000, 0, 1}, BestSys: far, Metric: 0.5})
	}
	for _, e := range near {
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Info().Shards; n != 1 {
		t.Fatalf("%d shards, want the one cluster pair", n)
	}
	return s
}

var (
	voteP = params.SysConfig{Cores: 4, MemoryGB: 8}
	voteQ = params.SysConfig{Cores: 8, MemoryGB: 32}
)

func entryAt(x, y float64, sys params.SysConfig) Entry {
	return Entry{Features: []float64{x, y, 0, 1}, BestSys: sys, Metric: 0.5}
}

// TestLookupAnswersFromTheNeighbourhood: three members at the origin won
// with P, two at x = 10 with Q. The cluster votes P, but a query at x = 10
// is 6 from the centroid (x = 4): the Q members (distance 0) are nearer,
// the P members (distance 10) are not, so its neighbourhood answers Q.
func TestLookupAnswersFromTheNeighbourhood(t *testing.T) {
	s := neighbourhoodStore(t, []Entry{
		entryAt(0, 0, voteP), entryAt(0, 0, voteP), entryAt(0, 0, voteP),
		entryAt(10, 0, voteQ), entryAt(10, 0, voteQ),
	})
	if got, ok := s.Lookup([]float64{0, 0, 0, 1}); !ok || got != voteP {
		t.Fatalf("query at the P members: (%v, %v), want (%v, true)", got, ok, voteP)
	}
	if got, ok := s.Lookup([]float64{10, 0, 0, 1}); !ok || got != voteQ {
		t.Fatalf("query at the Q members: (%v, %v), want the neighbourhood's (%v, true)", got, ok, voteQ)
	}
}

// TestLookupFallsBackToTheClusterVote: the members ring the centroid at
// the origin, two Q members 3 away and three P members 9.4–10 away. A query
// at (0.5, 0) is 0.5 from the centroid and at least 3 from every member,
// so no member is in its neighbourhood and the whole cluster votes: P,
// although the member nearest to the query holds Q.
func TestLookupFallsBackToTheClusterVote(t *testing.T) {
	s := neighbourhoodStore(t, []Entry{
		entryAt(0, 3, voteQ), entryAt(0, -3, voteQ),
		entryAt(10, 0, voteP), entryAt(-5, 8, voteP), entryAt(-5, -8, voteP),
	})
	if got, ok := s.Lookup([]float64{0.5, 0, 0, 1}); !ok || got != voteP {
		t.Fatalf("query beside the centroid: (%v, %v), want the cluster's (%v, true)", got, ok, voteP)
	}
}
