package trainer

// The trial prefix cache: PipeTune's second reuse axis (after the
// ground-truth store), exploiting that SGD progress depends only on
// (workload, corpus, training-relevant hyperparameters, seed) — never on
// the system configuration a trial happens to run under (Li et al.,
// "Exploiting Reuse in Pipeline-Aware Hyperparameter Tuning").
//
// An entry is what every hit reads: the prefix key and the per-epoch
// (loss, accuracy) trajectory as deep as the prefix was ever trained —
// 16 bytes per epoch. A trial whose prefix is cached to at least its
// epoch budget replays the curve and skips nn.TrainEpoch/Evaluate
// entirely (the sys-sweep case, where Algorithm 1 explores many system
// configurations per hyperparameter point); a deeper request is an
// ordinary miss that trains from epoch 0 and replaces the trajectory.
// No network state is retained: nothing this system runs would resume it
// (see DESIGN.md, "What an entry holds").
//
// Replayed results are bit-identical to from-scratch runs: trajectories
// store the exact float64s and the trainer's RNG streams for training and
// simulation are split independently. Memory is bounded by a strict byte
// cap with LRU eviction, and a singleflight collapses concurrent
// identical prefixes into one training run.

import (
	"strconv"
	"sync"
	"unsafe"

	"pipetune/internal/metrics"
)

// DefaultCacheBytes is the default trial-cache budget. An entry costs a
// few hundred bytes, so this holds the prefixes of roughly ten thousand
// tuning jobs.
const DefaultCacheBytes int64 = 64 << 20

// TrajPoint is one epoch's learning outcome — exactly the two numbers
// the simulation loop needs from SGD.
type TrajPoint struct {
	Loss float64
	Acc  float64
}

// cacheEntry is one prefix key's trajectory, linked into the LRU ring.
type cacheEntry struct {
	key        string
	traj       []TrajPoint // immutable once published; replaced, never appended
	prev, next *cacheEntry
}

// allocBytes rounds a small allocation up to the 16-byte granularity of
// the runtime's size classes.
func allocBytes(n int) int64 { return (int64(n) + 15) &^ 15 }

// mapSlotBytes is an entry's share of the index map: a string→pointer
// slot plus its control byte (25 B) at the runtime map's load, which
// swings between 7/16 and 7/8 across growths — 29 to 57 B, taken near
// the middle.
const mapSlotBytes = 48

// size is the heap the entry occupies, which is what the cap bounds: the
// entry struct, its index slot, the key bytes and the trajectory.
func (e *cacheEntry) size() int64 {
	return allocBytes(int(unsafe.Sizeof(*e))) + mapSlotBytes + allocBytes(len(e.key)) + allocBytes(16*cap(e.traj))
}

// CacheStats is a point-in-time counter snapshot, for tests, the reuse
// experiment and operators without a metrics registry.
type CacheStats struct {
	// TrajectoryHits replayed a cached learning curve; FlightHits waited
	// on a concurrent identical prefix instead of training; Misses
	// trained from scratch.
	TrajectoryHits uint64
	FlightHits     uint64
	Misses         uint64
	// EpochsSaved counts epochs of SGD the cache avoided; EpochsTrained
	// counts epochs actually computed through the cache.
	EpochsSaved   uint64
	EpochsTrained uint64
	// Evictions counts entries dropped to stay under the byte cap.
	Evictions uint64
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64
}

// cacheInstruments are the registry handles; all nil (no-op) until
// InstrumentMetrics runs.
type cacheInstruments struct {
	hits        *metrics.CounterVec // trainer_trial_cache_hits_total{kind}
	misses      *metrics.Counter
	epochsSaved *metrics.Counter
	evictions   *metrics.Counter
	bytes       *metrics.Gauge
	entries     *metrics.Gauge
	savedDist   *metrics.Distribution // epochs saved per hit
}

// TrialCache memoises learning trajectories under a byte budget. Safe
// for concurrent use; one cache is typically shared by every trial a
// daemon (or a worker process) runs.
type TrialCache struct {
	max int64

	mu      sync.Mutex
	bytes   int64
	lru     cacheEntry // ring sentinel: lru.next is coldest, lru.prev hottest
	entries map[string]*cacheEntry
	stats   CacheStats
	met     cacheInstruments

	flights flightGroup
}

// NewTrialCache builds a cache bounded to maxBytes (<= 0 selects
// DefaultCacheBytes).
func NewTrialCache(maxBytes int64) *TrialCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &TrialCache{max: maxBytes, entries: make(map[string]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Cap returns the configured byte budget.
func (c *TrialCache) Cap() int64 { return c.max }

// Stats snapshots the cache counters.
func (c *TrialCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	return s
}

// InstrumentMetrics registers the cache's families on reg and starts
// publishing. Call before concurrent use (the service wires it at
// construction). A nil registry yields nil handles: every update stays a
// no-op.
func (c *TrialCache) InstrumentMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = cacheInstruments{
		hits:        reg.CounterVec("trainer_trial_cache_hits_total", "Trial prefix cache hits by kind (trajectory replay, singleflight wait).", "kind"),
		misses:      reg.Counter("trainer_trial_cache_misses_total", "Trial prefixes trained from scratch."),
		epochsSaved: reg.Counter("trainer_trial_cache_epochs_saved_total", "Epochs of SGD avoided by the prefix cache."),
		evictions:   reg.Counter("trainer_trial_cache_evictions_total", "Cache entries evicted to stay under the byte cap."),
		bytes:       reg.Gauge("trainer_trial_cache_bytes", "Bytes resident in the trial prefix cache."),
		entries:     reg.Gauge("trainer_trial_cache_entries", "Entries resident in the trial prefix cache."),
		savedDist:   reg.Distribution("trainer_trial_cache_saved_epochs", "Epochs saved per cache hit."),
	}
	c.met.bytes.Set(float64(c.bytes))
	c.met.entries.Set(float64(len(c.entries)))
}

// hitLocked records a hit of the given kind that saved saved epochs.
// Callers hold c.mu.
func (c *TrialCache) hitLocked(kind string, saved int) {
	switch kind {
	case "trajectory":
		c.stats.TrajectoryHits++
	case "singleflight":
		c.stats.FlightHits++
	}
	c.stats.EpochsSaved += uint64(saved)
	c.met.hits.With(kind).Inc()
	c.met.epochsSaved.Add(uint64(saved))
	c.met.savedDist.Observe(float64(saved))
}

// trainFunc trains a prefix from scratch to the requested depth and
// returns its per-epoch trajectory.
type trainFunc func() ([]TrajPoint, error)

// unlink removes e from the LRU ring. Callers hold c.mu.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// touchLocked makes e the hottest entry (linking it if it is new).
func (c *TrialCache) touchLocked(e *cacheEntry) {
	if e.prev != nil {
		e.unlink()
	}
	e.prev, e.next = c.lru.prev, &c.lru
	e.prev.next, c.lru.prev = e, e
}

// lookup returns the cached trajectory prefix when it is at least epochs
// deep. The returned slice is immutable shared state — read-only.
func (c *TrialCache) lookup(key string, epochs int) ([]TrajPoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || len(e.traj) < epochs {
		return nil, false
	}
	c.touchLocked(e)
	c.hitLocked("trajectory", epochs)
	return e.traj[:epochs], true
}

// publish stores a freshly trained trajectory under key, replacing a
// shallower one (a concurrent deeper run's result is kept).
func (c *TrialCache) publish(key string, pts []TrajPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.EpochsTrained += uint64(len(pts))
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{key: key}
		c.entries[key] = e
	} else {
		c.bytes -= e.size()
	}
	if len(pts) > len(e.traj) {
		e.traj = pts
	}
	c.bytes += e.size()
	c.touchLocked(e)
	c.evictLocked()
	c.met.bytes.Set(float64(c.bytes))
	c.met.entries.Set(float64(len(c.entries)))
}

// evictLocked drops coldest-first entries until the cache fits its
// budget. The freshly touched entry is not exempt: a single entry larger
// than the cap is evicted too, keeping residency under the cap always
// (such a prefix simply retrains every time).
func (c *TrialCache) evictLocked() {
	for c.bytes > c.max && c.lru.next != &c.lru {
		e := c.lru.next
		e.unlink()
		delete(c.entries, e.key)
		c.bytes -= e.size()
		c.stats.Evictions++
		c.met.evictions.Inc()
	}
}

// trajectory returns the (loss, accuracy) sequence for epochs 1..epochs
// under the prefix key, calling train only when the cached prefix is
// absent or shallower. Concurrent callers with the same key and depth
// share one training run. Errors are never cached.
func (c *TrialCache) trajectory(key string, epochs int, train trainFunc) ([]TrajPoint, error) {
	if pts, ok := c.lookup(key, epochs); ok {
		return pts, nil
	}
	fkey := key + "#" + strconv.Itoa(epochs)
	v, err, shared := c.flights.Do(fkey, func() (any, error) {
		// Re-check under flight leadership: a deeper run may have
		// published while this caller was acquiring the flight.
		if pts, ok := c.lookup(key, epochs); ok {
			return pts, nil
		}
		c.mu.Lock()
		c.stats.Misses++
		c.met.misses.Inc()
		c.mu.Unlock()
		pts, err := train()
		if err != nil {
			return nil, err
		}
		c.publish(key, pts)
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		c.mu.Lock()
		c.hitLocked("singleflight", epochs)
		c.mu.Unlock()
	}
	return v.([]TrajPoint), nil
}
