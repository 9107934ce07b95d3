package metrics

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Re-registration returns the same instrument.
	if c2 := r.Counter("test_ops_total", "ops"); c2.Value() != 42 {
		t.Fatalf("re-registered counter lost state")
	}
}

func TestCounterConcurrentIncrements(t *testing.T) {
	// Hammer from many goroutines: every increment must land exactly
	// once.
	r := NewRegistry()
	c := r.Counter("test_concurrent_total", "x")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range per {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

// TestInstrumentFootprint pins each instrument to one cell: a counter
// is one uint64, and a distribution is one sketch plus its count, sum
// and extremes. Every series of every family carries one of them.
func TestInstrumentFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Counter{}); got != 8 {
		t.Errorf("Counter is %d B, want 8", got)
	}
	if got := unsafe.Sizeof(Distribution{}); got > 1536 {
		t.Errorf("Distribution is %d B, want at most 1536", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "depth")
	g.Set(5)
	g.Add(2.5)
	g.Add(-1.5)
	if got := g.Value(); got != 6 {
		t.Fatalf("Value = %v, want 6", got)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	// Every instrument method must no-op on nil receivers — that is the
	// whole disable-metrics story.
	var (
		c *Counter
		g *Gauge
		d *Distribution
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	d.Observe(1)
	d.Merge(DistSnapshot{Count: 1})
	if c.Value() != 0 || g.Value() != 0 || d.Count() != 0 || d.Sum() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var reg *Registry
	if reg.Counter("x", "y") != nil || reg.CounterVec("x", "y", "l").With("v") != nil {
		t.Fatal("nil registry must yield nil instruments")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
}

func TestDistributionQuantiles(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("test_latency_seconds", "latency")
	// 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		d.Observe(float64(i) / 1000)
	}
	if d.Count() != 1000 {
		t.Fatalf("Count = %d", d.Count())
	}
	if got, want := d.Sum(), 500.5; math.Abs(got-want) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if d.Min() != 0.001 || d.Max() != 1.0 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	// Quarter-octave buckets bound relative error by 2^(1/4)-1 ≈ 19%
	// worst case; the geometric midpoint halves that in expectation.
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.5}, {0.95, 0.95}, {0.99, 0.99}} {
		got := d.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.10 {
			t.Errorf("Quantile(%v) = %v, want %v ±10%% (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
}

func TestDistributionSnapshotDeltaMerge(t *testing.T) {
	d := NewDistribution()
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	prev := d.Snapshot()
	for i := 101; i <= 200; i++ {
		d.Observe(float64(i))
	}
	cur := d.Snapshot()
	delta := cur.Delta(prev)
	if delta.Count != 100 {
		t.Fatalf("delta Count = %d, want 100", delta.Count)
	}
	wantSum := 0.0
	for i := 101; i <= 200; i++ {
		wantSum += float64(i)
	}
	if math.Abs(delta.Sum-wantSum) > 1e-6 {
		t.Fatalf("delta Sum = %v, want %v", delta.Sum, wantSum)
	}

	// Merging the delta into a fresh distribution reproduces the second
	// hundred: same count, sum, and quantile estimates.
	m := NewDistribution()
	m.Merge(delta)
	if m.Count() != 100 || math.Abs(m.Sum()-wantSum) > 1e-6 {
		t.Fatalf("merged Count/Sum = %d/%v", m.Count(), m.Sum())
	}
	if q := m.Quantile(0.5); math.Abs(q-150)/150 > 0.15 {
		t.Fatalf("merged p50 = %v, want ≈150", q)
	}
}

func TestVecOverflowCardinality(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_tenant_total", "per tenant", "tenant")
	for i := 0; i < DefaultMaxCardinality+50; i++ {
		v.With(string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + itoa(i)).Inc()
	}
	ov := v.With("one-more-past-the-budget")
	if ov != v.With(OverflowLabel) {
		t.Fatal("past-budget label sets must route to the shared overflow series")
	}
	snap := r.Snapshot()
	if len(snap.Families) != 1 {
		t.Fatalf("families = %d", len(snap.Families))
	}
	if n := len(snap.Families[0].Samples); n > DefaultMaxCardinality+1 {
		t.Fatalf("series count %d exceeds budget %d+overflow", n, DefaultMaxCardinality)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_conflict", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind conflict")
		}
	}()
	r.Gauge("test_conflict", "x")
}

// TestHotPathAllocs pins the zero-allocation contract of every
// per-event instrument operation (cached handles; With is explicitly
// not on the hot path).
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_allocs_total", "x")
	g := r.Gauge("test_allocs_gauge", "x")
	d := r.Distribution("test_allocs_seconds", "x")
	vc := r.CounterVec("test_allocs_vec_total", "x", "k").With("v")
	for name, fn := range map[string]func(){
		"Counter.Inc":          func() { c.Inc() },
		"Counter.Add":          func() { c.Add(3) },
		"Gauge.Add":            func() { g.Add(1) },
		"Gauge.Set":            func() { g.Set(2) },
		"Distribution.Observe": func() { d.Observe(0.123) },
		"VecChild.Inc":         func() { vc.Inc() },
	} {
		if avg := testing.AllocsPerRun(1000, fn); avg != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, avg)
		}
	}
}

// TestDistributionChurn hammers one distribution from GOMAXPROCS
// writers while a scraper concurrently renders the exposition and takes
// snapshots — the -race CI job runs this to prove scrapes never tear
// the sketch. Totals are checked after the dust settles.
func TestDistributionChurn(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("test_churn_seconds", "churn")
	writers := runtime.GOMAXPROCS(0)
	const per = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var scr sync.WaitGroup
	scr.Add(1)
	go func() { // the scraper
		defer scr.Done()
		var sb strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			sb.Reset()
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			snap := d.Snapshot()
			var n uint64
			for _, b := range snap.Buckets {
				n += b.Count
			}
			if n != snap.Count {
				t.Errorf("snapshot bucket total %d != count %d", n, snap.Count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed + 1)
			for i := 0; i < per; i++ {
				d.Observe(v / 1000)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scr.Wait()
	if got := d.Count(); got != uint64(writers*per) {
		t.Fatalf("Count = %d, want %d", got, writers*per)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkDistributionObserve(b *testing.B) {
	d := NewRegistry().Distribution("bench_seconds", "x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.001
		for pb.Next() {
			d.Observe(v)
			v += 0.001
			if v > 10 {
				v = 0.001
			}
		}
	})
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 20; i++ {
		r.CounterVec("bench_fam_"+itoa(i)+"_total", "x", "k").With("v").Inc()
	}
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		_ = r.WritePrometheus(&sb)
	}
}

// TestUpdateIsAtomicToScrapes pins Update's contract in the registry
// itself, with writers so dense that every scrape contends with an
// Update for the lock: two series that only ever move together inside
// an Update never differ in a snapshot or an exposition, while a
// single-series writer outside any Update is neither blocked nor lost.
func TestUpdateIsAtomicToScrapes(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_pair_a_total", "First of a pair.")
	b := r.Distribution("test_pair_b_seconds", "Second of a pair.")
	solo := r.Counter("test_solo_total", "Written outside Update.")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Update(func() {
					a.Inc()
					b.Observe(0.5)
				})
				solo.Inc()
			}
		}()
	}
	for i := 0; i < 300; i++ {
		var av, bv uint64
		for _, f := range r.Snapshot().Families {
			switch f.Name {
			case "test_pair_a_total":
				av = uint64(f.Samples[0].Value)
			case "test_pair_b_seconds":
				bv = f.Samples[0].Count
			}
		}
		if av != bv {
			t.Fatalf("snapshot %d: pair torn, %d vs %d", i, av, bv)
		}
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		values := lintExposition(t, sb.String())
		if values["test_pair_a_total"] != values["test_pair_b_seconds_count"] {
			t.Fatalf("exposition %d: pair torn, %v vs %v", i, values["test_pair_a_total"], values["test_pair_b_seconds_count"])
		}
	}
	close(stop)
	wg.Wait()
	if a.Value() != b.Count() || solo.Value() != a.Value() {
		t.Fatalf("after the hammer: a=%d b=%d solo=%d, want all equal", a.Value(), b.Count(), solo.Value())
	}
}
