package gt

import (
	"testing"
)

// benchFeatures fabricates a 58-dimension profile (the PMU feature width
// real trials produce) for one of several well-separated families.
func benchFeatures(family, i int) []float64 {
	f := make([]float64, 58)
	for j := range f {
		f[j] = float64((family*37+j*13)%97) * 10
	}
	// Per-sample jitter on a few dimensions, like seed-to-seed profile
	// noise within one workload family.
	for _, j := range []int{3, 17, 29, 41} {
		f[j] += float64(i%7) * 0.3
	}
	return f
}

func benchEntry(family, i int) Entry {
	return Entry{
		Features: benchFeatures(family, i),
		BestSys:  probeGrid()[family%len(probeGrid())],
		Metric:   0.5,
	}
}

// populate seeds the store with families×perFamily entries and warms the
// models so lookup benchmarks measure the steady state.
func populate(b *testing.B, s Store, families, perFamily int) {
	b.Helper()
	for i := 0; i < perFamily; i++ {
		for f := 0; f < families; f++ {
			if err := s.Add(benchEntry(f, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for f := 0; f < families; f++ {
		s.Lookup(benchFeatures(f, 0))
	}
}

// BenchmarkGTLookupParallel is the acceptance benchmark for the sharded
// refactor: the epoch hot path under the service's real duty cycle —
// parallel reuse lookups across workload families while completed trials
// keep feeding entries in (1 add per 128 operations, roughly one trial
// completion per ~20 trials' worth of epoch lookups). Lookups are
// lock-free and adds touch only one shard; run with -cpu 1,2,4,8. The
// "sharded" sub-benchmark is the row BENCH_gt.json records.
func BenchmarkGTLookupParallel(b *testing.B) {
	const families, perFamily = 8, 32
	b.Run("sharded", func(b *testing.B) {
		s := NewSharded(DefaultConfig(), 1)
		populate(b, s, families, perFamily)
		queries := make([][]float64, families)
		for f := 0; f < families; f++ {
			queries[f] = benchFeatures(f, perFamily+1)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i, adds := 0, 0
			for pb.Next() {
				if i%128 == 127 {
					// Adds cycle families too: trials complete
					// across all tenants, not just one.
					_ = s.Add(benchEntry(adds%families, adds))
					adds++
				} else {
					s.Lookup(queries[i%families])
				}
				i++
			}
		})
	})
}

// BenchmarkGTLookupPure is the read-only counterpart: lookups against a
// quiescent store. It exposes the sharded store's routing overhead (one
// centroid distance per shard) — the price paid for contention-free
// growth; see BenchmarkGTLookupParallel for the regime that matters.
func BenchmarkGTLookupPure(b *testing.B) {
	const families, perFamily = 8, 32
	b.Run("sharded", func(b *testing.B) {
		s := NewSharded(DefaultConfig(), 1)
		populate(b, s, families, perFamily)
		queries := make([][]float64, families)
		for f := 0; f < families; f++ {
			queries[f] = benchFeatures(f, perFamily+1)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.Lookup(queries[i%families])
				i++
			}
		})
	})
}

// BenchmarkGTAddThroughput measures the trial-completion feed: an O(1)
// routed append (refits deferred to the next lookup).
func BenchmarkGTAddThroughput(b *testing.B) {
	const families = 8
	b.Run("sharded", func(b *testing.B) {
		s := NewSharded(DefaultConfig(), 1)
		for i := 0; i < b.N; i++ {
			// Bound the deferred refits' dependence on history so long
			// bench runs measure steady-state adds, not an ever-growing
			// database.
			if i%2048 == 0 && i > 0 {
				b.StopTimer()
				s = NewSharded(DefaultConfig(), 1)
				b.StartTimer()
			}
			if err := s.Add(benchEntry(i%families, i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
