package trainer

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/tsdb"
	"pipetune/internal/workload"
)

// cachedRunner is fastRunner with a trial prefix cache attached.
func cachedRunner(maxBytes int64) *Runner {
	r := fastRunner()
	r.Cache = NewTrialCache(maxBytes)
	return r
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
// energies and PMU profiles.
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
}

// TestTrialCacheCheckpointResume proves resume-from-checkpoint equals
// from-scratch at every split epoch: training k epochs and then resuming
// to E must be bit-identical to training E epochs straight through.
func TestTrialCacheCheckpointResume(t *testing.T) {
	const full = 5
	h := fastHyper()
	sys := params.DefaultSysConfig()
	h.Epochs = full
	plain := mustRun(t, fastRunner(), lenetMNIST, h, sys, 33, nil)
	for k := 1; k < full; k++ {
		cr := cachedRunner(0)
		short := h
		short.Epochs = k
		mustRun(t, cr, lenetMNIST, short, sys, 33, nil)
		resumed := mustRun(t, cr, lenetMNIST, h, sys, 33, nil)
		if !reflect.DeepEqual(plain, resumed) {
			t.Fatalf("split at epoch %d: resumed run differs from straight-through", k)
		}
		st := cr.Cache.Stats()
		if st.CheckpointHits != 1 {
			t.Fatalf("split at epoch %d: %d checkpoint hits, want 1", k, st.CheckpointHits)
		}
		if st.EpochsSaved != uint64(k) {
			t.Fatalf("split at epoch %d: saved %d epochs, want %d", k, st.EpochsSaved, k)
		}
		if st.EpochsTrained != uint64(full) {
			t.Fatalf("split at epoch %d: trained %d epochs, want %d", k, st.EpochsTrained, full)
		}
	}
	// The resumed and straight-through networks must converge to the same
	// weights: same final checkpoint digest.
	straight := cachedRunner(0)
	mustRun(t, straight, lenetMNIST, h, sys, 33, nil)
	split := cachedRunner(0)
	short := h
	short.Epochs = 2
	mustRun(t, split, lenetMNIST, short, sys, 33, nil)
	mustRun(t, split, lenetMNIST, h, sys, 33, nil)
	key := straight.PrefixKey(lenetMNIST, h, 33)
	a, okA := straight.Cache.Digest(key)
	b, okB := split.Cache.Digest(key)
	if !okA || !okB || a != b {
		t.Fatalf("final network digests diverge: %x (%v) vs %x (%v)", a, okA, b, okB)
	}
}

// TestCheckpointBlobsAreExactSize pins what makes the byte cap strict in
// resident bytes, not only in accounted ones: size() charges len(data),
// so a retained blob must carry no capacity beyond it.
func TestCheckpointBlobsAreExactSize(t *testing.T) {
	sys := params.DefaultSysConfig()
	for _, w := range workload.Catalog() {
		cr := cachedRunner(0)
		h := fastHyper()
		h.Epochs = 1
		mustRun(t, cr, w, h, sys, 11, nil)
		h.Epochs = 2 // resumes from the epoch-1 checkpoint, replaces it
		mustRun(t, cr, w, h, sys, 11, nil)
		for key, e := range cr.Cache.entries {
			if len(e.ckpt.data) == 0 {
				t.Fatalf("%s: entry %q has no checkpoint", w.Name(), key)
			}
			if cap(e.ckpt.data) != len(e.ckpt.data) {
				t.Errorf("%s: checkpoint blob len %d, cap %d", w.Name(), len(e.ckpt.data), cap(e.ckpt.data))
			}
		}
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
	total := st.TrajectoryHits + st.CheckpointHits + st.FlightHits + st.Misses
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
	var trained sync.Map
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts, err := c.trajectory("k", 2, func(start int, _ []byte) ([]TrajPoint, []byte, error) {
				<-release // hold the flight open until all callers queued
				trained.Store(start, true)
				return []TrajPoint{{Loss: 1}, {Loss: 0.5}}, []byte{1, 2, 3}, nil
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
	count := 0
	trained.Range(func(any, any) bool { count++; return true })
	if count != 1 {
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

// TestTSDBWriteErrorsCounted pins satellite (b): record's discarded tsdb
// write errors land on trainer_tsdb_write_errors_total. The in-memory
// tsdb cannot fail a well-formed write, so the error path is driven
// through the counter seam: uninstrumented it reads zero and stays
// nil-safe, instrumented the increments surface through both the
// accessor and the registry.
func TestTSDBWriteErrorsCounted(t *testing.T) {
	r := fastRunner()
	r.DB = tsdb.New()
	h := fastHyper()
	h.Epochs = 1
	// Uninstrumented: record's error path must be a nil-safe no-op.
	r.tsdbErrs.Load().Inc()
	if got := r.TSDBWriteErrors(); got != 0 {
		t.Fatalf("uninstrumented counter reads %d, want 0", got)
	}
	reg := metrics.NewRegistry()
	r.InstrumentMetrics(reg)
	mustRun(t, r, lenetMNIST, h, params.DefaultSysConfig(), 2, nil)
	if got := r.TSDBWriteErrors(); got != 0 {
		t.Fatalf("successful writes counted as errors: %d", got)
	}
	r.tsdbErrs.Load().Inc() // the exact call record makes on a failed write
	if got := r.TSDBWriteErrors(); got != 1 {
		t.Fatalf("counter = %d after one discarded write, want 1", got)
	}
}

// BenchmarkTrialCache is the acceptance benchmark: the two reuse shapes
// the cache exists for, each cached and uncached. sys-sweep replays one
// trained prefix across many system configurations (Algorithm 1's inner
// loop); rung-promotion resumes a short trial's checkpoint into a longer
// one (HyperBand budget growth).
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
	promote := func(b *testing.B, fresh func() *Runner) {
		short := fastHyper()
		short.Epochs = 2
		full := fastHyper()
		full.Epochs = 6
		trials := 0
		for i := 0; i < b.N; i++ {
			r := fresh()
			if _, err := r.Run(lenetMNIST, short, sys[0], 17, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Run(lenetMNIST, full, sys[0], 17, nil); err != nil {
				b.Fatal(err)
			}
			trials += 2
		}
		b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/sec")
	}
	b.Run("sys-sweep/uncached", func(b *testing.B) { sweep(b, fastRunner()) })
	b.Run("sys-sweep/cached", func(b *testing.B) { sweep(b, cachedRunner(0)) })
	b.Run("rung-promotion/uncached", func(b *testing.B) { promote(b, fastRunner) })
	b.Run("rung-promotion/cached", func(b *testing.B) { promote(b, func() *Runner { return cachedRunner(0) }) })
}
