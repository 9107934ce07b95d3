package trainer

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/workload"
)

// cachedRunner is fastRunner with a trial prefix cache attached.
func cachedRunner(maxBytes int64) *Runner {
	r := fastRunner()
	r.Cache = NewTrialCache(maxBytes)
	return r
}

// sameError asserts the cached and uncached paths fail alike: there is one
// training path and one simulation loop, so a trial error must carry the
// same wrapped text whether or not a cache sits in front of them.
func sameError(t *testing.T, what string, plainErr, cachedErr error, want string) {
	t.Helper()
	if plainErr == nil || cachedErr == nil {
		t.Fatalf("%s: errors = (%v, %v), want both non-nil", what, plainErr, cachedErr)
	}
	if plainErr.Error() != cachedErr.Error() {
		t.Fatalf("%s: uncached error %q, cached error %q", what, plainErr, cachedErr)
	}
	if !strings.Contains(plainErr.Error(), want) {
		t.Fatalf("%s: error %q does not mention %q", what, plainErr, want)
	}
}

// mustRun fails the test on a trial error.
func mustRun(t testing.TB, r *Runner, w workload.Workload, h params.Hyper, sys params.SysConfig, seed uint64, obs EpochObserver) *Result {
	t.Helper()
	res, err := r.Run(w, h, sys, seed, obs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTrialCacheParityCatalog is the core bit-identity guarantee: for
// every workload in the Table 3 catalog, a cached trial — cold (miss,
// trained through the cache) and warm (trajectory replay) — equals the
// uncached trial in every field, including the simulated durations,
// energies and PMU profiles. A failing simulation phase surfaces the same
// wrapped error on both paths.
func TestTrialCacheParityCatalog(t *testing.T) {
	sys := params.DefaultSysConfig()
	for _, w := range workload.Catalog() {
		h := fastHyper()
		h.Epochs = 2
		plain := mustRun(t, fastRunner(), w, h, sys, 11, nil)
		cr := cachedRunner(0)
		cold := mustRun(t, cr, w, h, sys, 11, nil)
		warm := mustRun(t, cr, w, h, sys, 11, nil)
		if !reflect.DeepEqual(plain, cold) {
			t.Fatalf("%s: cold cached run differs from uncached", w.Name())
		}
		if !reflect.DeepEqual(plain, warm) {
			t.Fatalf("%s: warm (replayed) run differs from uncached", w.Name())
		}
		st := cr.Cache.Stats()
		if st.Misses != 1 || st.TrajectoryHits != 1 {
			t.Fatalf("%s: stats = %+v, want 1 miss + 1 trajectory hit", w.Name(), st)
		}
		// A cost model with a negative sync term yields a negative epoch
		// duration, which the power series rejects inside runPhase.
		bad, badCached := fastRunner(), cachedRunner(0)
		bad.Cost.SyncScale, badCached.Cost.SyncScale = -1e12, -1e12
		_, plainErr := bad.Run(w, h, sys, 11, nil)
		_, cachedErr := badCached.Run(w, h, sys, 11, nil)
		sameError(t, w.Name(), plainErr, cachedErr, "trainer: epoch 1: energy:")
	}
}

// TestTrialCacheParityWithObserver exercises the sys-sweep shape: the
// same training prefix under different starting configurations and a
// mid-trial observer switch. The learning curve must replay from cache
// while the simulated quantities still respond to the configurations.
func TestTrialCacheParityWithObserver(t *testing.T) {
	h := fastHyper()
	h.Epochs = 4
	sweep := []params.SysConfig{{Cores: 4, MemoryGB: 8}, {Cores: 8, MemoryGB: 16}, {Cores: 16, MemoryGB: 32}}
	obs := ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s EpochStats) *params.SysConfig {
		if s.Epoch == 2 {
			return &params.SysConfig{Cores: 12, MemoryGB: 24}
		}
		return nil
	})
	cr := cachedRunner(0)
	for _, sys := range sweep {
		plain := mustRun(t, fastRunner(), lenetMNIST, h, sys, 21, obs)
		cached := mustRun(t, cr, lenetMNIST, h, sys, 21, obs)
		if !reflect.DeepEqual(plain, cached) {
			t.Fatalf("sys %v: cached run differs from uncached", sys)
		}
	}
	st := cr.Cache.Stats()
	if st.TrajectoryHits != uint64(len(sweep)-1) {
		t.Fatalf("sweep of %d configs: %d trajectory hits, want %d", len(sweep), st.TrajectoryHits, len(sweep)-1)
	}
	if want := uint64(h.Epochs * (len(sweep) - 1)); st.EpochsSaved != want {
		t.Fatalf("epochs saved = %d, want %d", st.EpochsSaved, want)
	}
	// An observer handing back an invalid configuration fails the trial
	// identically on both paths — a warm cache included.
	invalid := ObserverFunc(func(uint64, workload.Workload, params.Hyper, EpochStats) *params.SysConfig {
		return &params.SysConfig{}
	})
	_, plainErr := fastRunner().Run(lenetMNIST, h, sweep[0], 21, invalid)
	_, cachedErr := cr.Run(lenetMNIST, h, sweep[0], 21, invalid)
	sameError(t, "invalid observer config", plainErr, cachedErr, "trainer: observer returned invalid config:")
}

// TestDeeperRequestRetrainsAndExtends pins the contract for a request
// deeper than the cached prefix, at every split k of an n-epoch run: it is
// an ordinary miss that trains from epoch 0, equals a from-scratch run bit
// for bit, and replaces the trajectory — after which the shallow request
// is served from the prefix without training.
func TestDeeperRequestRetrainsAndExtends(t *testing.T) {
	const full = 5
	h := fastHyper()
	sys := params.DefaultSysConfig()
	h.Epochs = full
	plain := mustRun(t, fastRunner(), lenetMNIST, h, sys, 33, nil)
	for k := 1; k < full; k++ {
		cr := cachedRunner(0)
		short := h
		short.Epochs = k
		shallow := mustRun(t, cr, lenetMNIST, short, sys, 33, nil)
		deep := mustRun(t, cr, lenetMNIST, h, sys, 33, nil)
		if !reflect.DeepEqual(plain, deep) {
			t.Fatalf("split at epoch %d: deeper run differs from straight-through", k)
		}
		st := cr.Cache.Stats()
		if st.Misses != 2 || st.TrajectoryHits != 0 || st.EpochsSaved != 0 {
			t.Fatalf("split at epoch %d: stats = %+v, want 2 misses and no hits", k, st)
		}
		if st.EpochsTrained != uint64(k+full) {
			t.Fatalf("split at epoch %d: trained %d epochs, want %d", k, st.EpochsTrained, k+full)
		}
		if st.Entries != 1 {
			t.Fatalf("split at epoch %d: %d entries, want the one replaced trajectory", k, st.Entries)
		}
		again := mustRun(t, cr, lenetMNIST, short, sys, 33, nil)
		if !reflect.DeepEqual(shallow, again) {
			t.Fatalf("split at epoch %d: prefix replay differs from the shallow run", k)
		}
		st = cr.Cache.Stats()
		if st.TrajectoryHits != 1 || st.Misses != 2 || st.EpochsTrained != uint64(k+full) {
			t.Fatalf("split at epoch %d: stats = %+v, want a trajectory hit that trained nothing", k, st)
		}
	}
}

// heapAlloc reads the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCacheBytesMatchHeap pins the byte accounting to the heap the
// entries really occupy — struct, index slot, key and trajectory — so
// the cap bounds resident memory, not an estimate of it; and that
// residency never exceeds the cap while evicting.
func TestCacheBytesMatchHeap(t *testing.T) {
	const n = 60000
	r := fastRunner()
	h := fastHyper()
	insert := func(c *TrialCache, i int) {
		key := r.prefixKey(lenetMNIST, h, uint64(i)<<32|0x9e3779b9) // realistic key length
		c.publish(key, make([]TrajPoint, 4))
	}
	before := heapAlloc()
	c := NewTrialCache(0)
	for i := 0; i < n; i++ {
		insert(c, i)
	}
	held := float64(heapAlloc() - before)
	st := c.Stats()
	if st.Entries != n {
		t.Fatalf("%d entries resident, want %d", st.Entries, n)
	}
	if ratio := float64(st.Bytes) / held; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("accounted %d bytes for %.0f bytes of heap (ratio %.3f, want within 10%%)", st.Bytes, held, ratio)
	}
	runtime.KeepAlive(c)

	small := NewTrialCache(st.Bytes / 8)
	for i := 0; i < n; i++ {
		insert(small, i)
		if b := small.Stats().Bytes; b > small.Cap() {
			t.Fatalf("insert %d: resident %d bytes exceeds cap %d", i, b, small.Cap())
		}
	}
	if st := small.Stats(); st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("stats = %+v, want a partly evicted cache", st)
	}
}

// TestCorpusBytesMatchHeap pins the corpus owner's accounting the way
// TestCacheBytesMatchHeap pins the cache's: generating all four datasets at
// the default sizes moves the live heap by what the trainer_corpus_bytes
// gauge — the sum of every split's Bytes() — says it holds. No trial
// trains, so the runner holds the corpora weakly; the test keeps them.
func TestCorpusBytesMatchHeap(t *testing.T) {
	r := NewRunner()
	reg := metrics.NewRegistry()
	r.InstrumentMetrics(reg)
	gauge := reg.Gauge("trainer_corpus_bytes", "")
	if v := gauge.Value(); v != 0 {
		t.Fatalf("gauge reads %v before any corpus exists", v)
	}
	before := heapAlloc()
	want := int64(0)
	var pairs []*corpusPair
	for _, ds := range []workload.Dataset{workload.MNIST, workload.FashionMNIST, workload.News20, workload.Rodinia} {
		cp, err := r.corpus(workload.Workload{Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		want += cp.train.Bytes() + cp.test.Bytes()
		pairs = append(pairs, cp)
	}
	held := float64(heapAlloc() - before)
	if got := int64(gauge.Value()); got != want {
		t.Fatalf("gauge reads %d bytes, the splits sum to %d", got, want)
	}
	if ratio := float64(want) / held; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("accounted %d bytes for %.0f bytes of heap (ratio %.3f, want within 10%%)", want, held, ratio)
	}
	runtime.KeepAlive(pairs)
	runtime.KeepAlive(r)
}

// corpusMetrics instruments r and returns its corpus gauge and counter.
func corpusMetrics(r *Runner) (bytes *metrics.Gauge, gens *metrics.Counter) {
	reg := metrics.NewRegistry()
	r.InstrumentMetrics(reg)
	return reg.Gauge("trainer_corpus_bytes", ""), reg.Counter("trainer_corpus_generations_total", "")
}

// awaitCorpusBytes collects garbage and waits for the gauge to read want:
// a collected corpus leaves the gauge in its cleanup, which the runtime
// runs on its own goroutine after the collection that freed it.
func awaitCorpusBytes(t *testing.T, g *metrics.Gauge, want float64) {
	t.Helper()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); g.Value() != want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("trainer_corpus_bytes reads %v, want %v", g.Value(), want)
		}
	}
}

// liveCorpus reports whether r still reaches the corpus of w.
func liveCorpus(r *Runner, w workload.Workload) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.corpora[r.corpusKey(w)].Value() != nil
}

// TestIdleTrainerReleasesCorpora pins the hold-while-working rule: a
// corpus outlives a collection while any trial of its runner trains (an
// open busy(1) stands for a trial still training), the last training
// trial's exit hands it to the collector and the gauge back to zero, and
// the next trial regenerates it and returns the same result bit for bit.
func TestIdleTrainerReleasesCorpora(t *testing.T) {
	r := fastRunner()
	gauge, gens := corpusMetrics(r)
	h, sys := fastHyper(), params.DefaultSysConfig()

	r.busy(1)
	first := mustRun(t, r, lenetMNIST, h, sys, 4, nil)
	runtime.GC()
	if !liveCorpus(r, lenetMNIST) {
		t.Fatal("a corpus was collected while a trial of its runner trains")
	}
	mustRun(t, r, lenetMNIST, h, sys, 5, nil)
	if n := r.corpusGens.Load(); n != 1 {
		t.Fatalf("%d generations while the runner trained throughout, want 1", n)
	}
	if v := gauge.Value(); v <= 0 {
		t.Fatalf("gauge reads %v with a corpus resident", v)
	}
	r.busy(-1)

	awaitCorpusBytes(t, gauge, 0)
	if liveCorpus(r, lenetMNIST) {
		t.Fatal("an idle runner still holds its corpus after a collection")
	}
	again := mustRun(t, r, lenetMNIST, h, sys, 4, nil)
	if n := r.corpusGens.Load(); n != 2 {
		t.Fatalf("%d generations, want the released corpus regenerated once (2)", n)
	}
	if v := gens.Value(); v != 2 {
		t.Fatalf("trainer_corpus_generations_total reads %v, want 2", v)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("a trial on the regenerated corpus differs from the first")
	}
	awaitCorpusBytes(t, gauge, 0)
	r.mu.Lock()
	left := len(r.corpora)
	r.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d collected corpora still keyed", left)
	}
}

// TestReplayBuildsNoCorpus: a trajectory-cache hit reads no corpus, so it
// builds none on a runner whose corpus was collected.
func TestReplayBuildsNoCorpus(t *testing.T) {
	r := cachedRunner(0)
	gauge, _ := corpusMetrics(r)
	h, sys := fastHyper(), params.DefaultSysConfig()
	trained := mustRun(t, r, lenetMNIST, h, sys, 6, nil)
	awaitCorpusBytes(t, gauge, 0)
	replayed := mustRun(t, r, lenetMNIST, h, sys, 6, nil)
	if st := r.Cache.Stats(); st.TrajectoryHits != 1 {
		t.Fatalf("stats = %+v, want the second trial replayed", st)
	}
	if n := r.corpusGens.Load(); n != 1 {
		t.Fatalf("%d generations, want the replay to build no corpus (1)", n)
	}
	if gauge.Value() != 0 || liveCorpus(r, lenetMNIST) {
		t.Fatal("the replay left a corpus resident")
	}
	if !reflect.DeepEqual(trained, replayed) {
		t.Fatal("the replayed trial differs from the trained one")
	}
}

// TestPrefixKeyNamesTheNetwork: the three Rodinia kernels train one and the
// same classifier on one corpus, so they share a training prefix — a second
// kernel's trial is a cache hit that still reports its own workload — while
// models that build different networks on a shared corpus do not.
func TestPrefixKeyNamesTheNetwork(t *testing.T) {
	r := cachedRunner(0)
	h := fastHyper()
	sys := params.DefaultSysConfig()
	rodinia := func(m workload.Model) workload.Workload {
		return workload.Workload{Model: m, Dataset: workload.Rodinia}
	}
	jacobi, bfs := rodinia(workload.Jacobi), rodinia(workload.BFS)
	if a, b := r.prefixKey(jacobi, h, 3), r.prefixKey(bfs, h, 3); a != b {
		t.Fatalf("jacobi and bfs keyed apart: %q vs %q", a, b)
	}
	cnn := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	lstm := workload.Workload{Model: workload.LSTM, Dataset: workload.News20}
	if a, b := r.prefixKey(cnn, h, 3), r.prefixKey(lstm, h, 3); a == b {
		t.Fatalf("cnn and lstm share key %q", a)
	}
	mustRun(t, r, jacobi, h, sys, 3, nil)
	got := mustRun(t, r, bfs, h, sys, 3, nil)
	if st := r.Cache.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want the second kernel's trial to hit", st)
	}
	if want := mustRun(t, fastRunner(), bfs, h, sys, 3, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("bfs replayed from jacobi's prefix differs from an uncached bfs run")
	}
}

// TestTrialCacheEviction pins the byte-cap discipline: a cache far too
// small for its working set evicts LRU entries and never exceeds the cap.
func TestTrialCacheEviction(t *testing.T) {
	cr := cachedRunner(1) // 1 byte: every entry is immediately over budget
	h := fastHyper()
	h.Epochs = 2
	sys := params.DefaultSysConfig()
	plain := mustRun(t, fastRunner(), lenetMNIST, h, sys, 1, nil)
	for seed := uint64(1); seed <= 4; seed++ {
		mustRun(t, cr, lenetMNIST, h, sys, seed, nil)
	}
	st := cr.Cache.Stats()
	if st.Bytes > cr.Cache.Cap() {
		t.Fatalf("resident %d bytes exceeds cap %d", st.Bytes, cr.Cache.Cap())
	}
	if st.Entries != 0 || st.Evictions != 4 {
		t.Fatalf("stats = %+v, want 0 entries and 4 evictions", st)
	}
	// Correctness is unaffected: an always-evicting cache just retrains.
	again := mustRun(t, cr, lenetMNIST, h, sys, 1, nil)
	if !reflect.DeepEqual(plain, again) {
		t.Fatalf("run through a thrashing cache differs from uncached")
	}
}

// TestTrialCacheChurnRace churns one small cache from many goroutines —
// mixed prefixes, mixed depths, constant eviction — and asserts the byte
// cap held. Run with -race this doubles as the cache's race suite.
func TestTrialCacheChurnRace(t *testing.T) {
	r := fastRunner()
	r.Data.TrainSize, r.Data.TestSize = 96, 32
	c := NewTrialCache(64 << 10) // a few entries' worth: constant eviction
	r.Cache = c
	reg := metrics.NewRegistry()
	r.InstrumentMetrics(reg)
	sys := params.DefaultSysConfig()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				h := fastHyper()
				h.Epochs = 1 + (g+i)%3
				seed := uint64(1 + (g+i)%4)
				if _, err := r.Run(lenetMNIST, h, sys, seed, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Bytes > c.Cap() {
		t.Fatalf("resident %d bytes exceeds cap %d under churn", st.Bytes, c.Cap())
	}
	total := st.TrajectoryHits + st.FlightHits + st.Misses
	if total == 0 {
		t.Fatal("no cache traffic recorded")
	}
}

// TestTrialCacheSingleflight pins the dedup: concurrent identical trials
// train the prefix once and the waiters count as singleflight hits.
func TestTrialCacheSingleflight(t *testing.T) {
	c := NewTrialCache(0)
	release := make(chan struct{})
	const n = 4
	var wg sync.WaitGroup
	var trained atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts, err := c.trajectory("k", 2, func() ([]TrajPoint, error) {
				<-release // hold the flight open until all callers queued
				trained.Add(1)
				return []TrajPoint{{Loss: 1}, {Loss: 0.5}}, nil
			})
			if err != nil || len(pts) != 2 {
				t.Errorf("trajectory: %v (%d pts)", err, len(pts))
			}
		}()
	}
	// Wait for the flight to open (the leader is inside), then release it.
	for {
		c.flights.mu.Lock()
		queued := len(c.flights.m) > 0
		c.flights.mu.Unlock()
		if queued {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d misses, want exactly 1 training run", st.Misses)
	}
	if st.FlightHits+st.TrajectoryHits != n-1 {
		t.Fatalf("stats = %+v: %d callers should have shared or replayed", st, n-1)
	}
	if count := trained.Load(); count != 1 {
		t.Fatalf("train ran %d times, want 1", count)
	}
}

// TestCorpusSingleflight pins the fix for the duplicate-generation race:
// N concurrent first trials of a workload synthesize its corpus once.
func TestCorpusSingleflight(t *testing.T) {
	r := fastRunner()
	const n = 8
	var wg sync.WaitGroup
	pairs := make([]*corpusPair, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp, err := r.corpus(lenetMNIST)
			if err != nil {
				t.Error(err)
				return
			}
			pairs[i] = cp
		}()
	}
	wg.Wait()
	if gens := r.corpusGens.Load(); gens != 1 {
		t.Fatalf("corpus generated %d times under %d concurrent trials, want 1", gens, n)
	}
	for i := 1; i < n; i++ {
		if pairs[i] != pairs[0] {
			t.Fatalf("caller %d got a different corpus instance", i)
		}
	}
}

// TestTrialCacheMetrics checks the registry families move with the cache.
func TestTrialCacheMetrics(t *testing.T) {
	r := cachedRunner(0)
	reg := metrics.NewRegistry()
	r.InstrumentMetrics(reg)
	h := fastHyper()
	h.Epochs = 2
	sys := params.DefaultSysConfig()
	mustRun(t, r, lenetMNIST, h, sys, 9, nil)
	mustRun(t, r, lenetMNIST, h, sys, 9, nil)
	snap := map[string]float64{}
	for _, fam := range reg.Snapshot().Families {
		for _, s := range fam.Samples {
			snap[fam.Name+labelSuffix(s.Labels)] += s.Value
		}
	}
	if snap["trainer_trial_cache_misses_total"] != 1 {
		t.Fatalf("misses counter = %v, want 1 (snapshot %v)", snap["trainer_trial_cache_misses_total"], snap)
	}
	if snap["trainer_trial_cache_hits_total{kind=trajectory}"] != 1 {
		t.Fatalf("trajectory hits counter = %v, want 1 (snapshot %v)", snap["trainer_trial_cache_hits_total{kind=trajectory}"], snap)
	}
	if snap["trainer_trial_cache_epochs_saved_total"] != float64(h.Epochs) {
		t.Fatalf("epochs-saved counter = %v, want %d", snap["trainer_trial_cache_epochs_saved_total"], h.Epochs)
	}
	if snap["trainer_trial_cache_bytes"] <= 0 || snap["trainer_trial_cache_entries"] != 1 {
		t.Fatalf("residency gauges: bytes=%v entries=%v", snap["trainer_trial_cache_bytes"], snap["trainer_trial_cache_entries"])
	}
}

func labelSuffix(labels map[string]string) string {
	if v, ok := labels["kind"]; ok {
		return "{kind=" + v + "}"
	}
	return ""
}

// BenchmarkTrialCache is the acceptance benchmark for the reuse shape the
// cache exists for, cached and uncached: sys-sweep replays one trained
// prefix across many system configurations (Algorithm 1's inner loop).
func BenchmarkTrialCache(b *testing.B) {
	sys := []params.SysConfig{{Cores: 4, MemoryGB: 8}, {Cores: 8, MemoryGB: 16}, {Cores: 12, MemoryGB: 24}, {Cores: 16, MemoryGB: 32}}
	sweep := func(b *testing.B, r *Runner) {
		h := fastHyper()
		h.Epochs = 4
		trials := 0
		for i := 0; i < b.N; i++ {
			for _, s := range sys {
				if _, err := r.Run(lenetMNIST, h, s, 17, nil); err != nil {
					b.Fatal(err)
				}
				trials++
			}
		}
		b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/sec")
		if r.Cache != nil {
			st := r.Cache.Stats()
			b.ReportMetric(float64(st.EpochsTrained), "epochs-trained")
			b.ReportMetric(float64(st.EpochsSaved), "epochs-saved")
		}
	}
	b.Run("sys-sweep/uncached", func(b *testing.B) { sweep(b, fastRunner()) })
	b.Run("sys-sweep/cached", func(b *testing.B) { sweep(b, cachedRunner(0)) })
}
