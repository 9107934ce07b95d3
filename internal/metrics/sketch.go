package metrics

import (
	"math"
	"sync/atomic"
)

// Distribution state: a fixed log-spaced bucket sketch. Bucket bounds
// are quarter-powers of two — bucket i covers
// (2^(minExp+i/4), 2^(minExp+(i+1)/4)] — spanning 2^-30 (~1ns, as
// seconds) through 2^14 (~4.5h). Values below the range land in the
// first bucket, values above in the last. Quantiles report a bucket's
// geometric midpoint, so the relative error is bounded by half a
// bucket width: 2^(1/8)-1 ≈ 9%. Counts are mergeable across processes
// by bucket-wise addition, which is how worker-shipped sketches fold
// into the daemon's registry.
const (
	sketchMinExp  = -30
	sketchOctaves = 44
	sketchBuckets = sketchOctaves * 4 // 176
)

// sketchBounds[i] is the inclusive upper bound of bucket i.
var sketchBounds = func() [sketchBuckets]float64 {
	var b [sketchBuckets]float64
	for i := range b {
		b[i] = math.Pow(2, float64(sketchMinExp)+float64(i+1)/4)
	}
	return b
}()

// bucketIndex maps a value to its sketch bucket without calling Log:
// Frexp yields the octave, and two float compares locate the quarter
// within it.
func bucketIndex(v float64) int {
	if !(v > 0) { // zero, negative, NaN
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	// Quarter boundaries within the octave: 0.5*2^(q/4).
	var q int
	switch {
	case frac <= 0.5946035575013605: // 0.5 * 2^(1/4)
		q = 0
	case frac <= 0.7071067811865476: // 0.5 * 2^(2/4)
		q = 1
	case frac <= 0.8409152093229160: // 0.5 * 2^(3/4)
		q = 2
	default:
		q = 3
	}
	// frac*2^exp means the value sits in octave exp-1 (e.g. v=1.0 is
	// frac=0.5, exp=1, and belongs in the bucket bounded by 2^0).
	idx := (exp-1-sketchMinExp)*4 + q
	if idx < 0 {
		return 0
	}
	if idx >= sketchBuckets {
		return sketchBuckets - 1
	}
	return idx
}

// Distribution records observations into the sketch. Observe is
// lock-free and allocation-free; Quantile/Sum/Count/Max read without
// blocking writers. Nil-safe like Counter.
type Distribution struct {
	counts [sketchBuckets]atomic.Uint64
	count  atomic.Uint64
	sumBit atomic.Uint64
	// minBit/maxBit track exact observed extremes (the sketch alone
	// would quantise them); nonzero latches whether any observation
	// happened so Min of an empty distribution reads 0.
	minBit  atomic.Uint64
	maxBit  atomic.Uint64
	nonzero atomic.Bool
}

// NewDistribution returns a standalone distribution, used both by
// registry families and by worker-local collectors that ship their
// sketches over the wire rather than exposing them.
func NewDistribution() *Distribution {
	d := &Distribution{}
	d.minBit.Store(math.Float64bits(math.Inf(1)))
	d.maxBit.Store(math.Float64bits(math.Inf(-1)))
	return d
}

// Observe records one value.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	d.counts[bucketIndex(v)].Add(1)
	d.count.Add(1)
	d.record(v, v, v)
}

// record adds sum to the running sum and widens min/max to cover lo
// and hi.
func (d *Distribution) record(sum, lo, hi float64) {
	for {
		old := d.sumBit.Load()
		if d.sumBit.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			break
		}
	}
	d.nonzero.Store(true)
	for {
		old := d.minBit.Load()
		if lo >= math.Float64frombits(old) || d.minBit.CompareAndSwap(old, math.Float64bits(lo)) {
			break
		}
	}
	for {
		old := d.maxBit.Load()
		if hi <= math.Float64frombits(old) || d.maxBit.CompareAndSwap(old, math.Float64bits(hi)) {
			break
		}
	}
}

// Count returns the number of observations.
func (d *Distribution) Count() uint64 {
	if d == nil {
		return 0
	}
	return d.count.Load()
}

// Sum returns the sum of observed values.
func (d *Distribution) Sum() float64 {
	if d == nil {
		return 0
	}
	return math.Float64frombits(d.sumBit.Load())
}

// Min returns the smallest observed value (0 when empty).
func (d *Distribution) Min() float64 {
	if d == nil || !d.nonzero.Load() {
		return 0
	}
	return math.Float64frombits(d.minBit.Load())
}

// Max returns the largest observed value (0 when empty).
func (d *Distribution) Max() float64 {
	if d == nil || !d.nonzero.Load() {
		return 0
	}
	return math.Float64frombits(d.maxBit.Load())
}

// buckets loads the bucket counts, returning their total.
func (d *Distribution) buckets() (counts [sketchBuckets]uint64, total uint64) {
	for b := range d.counts {
		n := d.counts[b].Load()
		counts[b] = n
		total += n
	}
	return counts, total
}

// Quantile estimates the q-quantile (q in [0,1]) from the sketch,
// clamped to the observed min/max. Returns 0 for an empty
// distribution.
func (d *Distribution) Quantile(q float64) float64 {
	if d == nil {
		return 0
	}
	merged, total := d.buckets()
	if total == 0 {
		return 0
	}
	return quantileFromBuckets(merged[:], total, q, d.Min(), d.Max())
}

// quantileFromBuckets walks merged bucket counts to the target rank
// and reports the bucket's geometric midpoint, clamped to [min, max].
func quantileFromBuckets(counts []uint64, total uint64, q float64, min, max float64) float64 {
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			lo := 0.0
			if i > 0 {
				lo = sketchBounds[i-1]
			}
			hi := sketchBounds[i]
			v := math.Sqrt(lo * hi)
			if lo == 0 {
				v = hi / 2
			}
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}

// BucketCount is one non-empty sketch bucket in a snapshot, keyed by
// bucket index. The wire carries only occupied buckets — sketches in
// practice touch a handful of octaves.
type BucketCount struct {
	Index int
	Count uint64
}

// DistSnapshot is a point-in-time copy of a distribution, the unit of
// cross-process merging: workers ship cumulative snapshots inside
// heartbeats, the daemon diffs consecutive snapshots and merges the
// delta into its own registry.
type DistSnapshot struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Buckets []BucketCount
}

// Snapshot captures the distribution's current state.
func (d *Distribution) Snapshot() DistSnapshot {
	if d == nil {
		return DistSnapshot{}
	}
	merged, total := d.buckets()
	snap := DistSnapshot{Count: total, Sum: d.Sum(), Min: d.Min(), Max: d.Max()}
	for i, n := range merged {
		if n != 0 {
			snap.Buckets = append(snap.Buckets, BucketCount{Index: i, Count: n})
		}
	}
	return snap
}

// Delta returns the per-bucket difference cur - prev, clamped at zero
// bucket-wise, for folding a worker's cumulative snapshot stream into
// daemon counters. Snapshots from one worker registration are ordered
// and monotone, so the clamp only matters on a malformed stream.
func (s DistSnapshot) Delta(prev DistSnapshot) DistSnapshot {
	prevCounts := make(map[int]uint64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevCounts[b.Index] = b.Count
	}
	d := DistSnapshot{Min: s.Min, Max: s.Max}
	if s.Sum > prev.Sum {
		d.Sum = s.Sum - prev.Sum
	}
	for _, b := range s.Buckets {
		if n := b.Count - prevCounts[b.Index]; n > 0 && b.Count > prevCounts[b.Index] {
			d.Buckets = append(d.Buckets, BucketCount{Index: b.Index, Count: n})
			d.Count += n
		}
	}
	return d
}

// Merge folds a snapshot (typically a delta) into the distribution;
// min/max widen to cover the snapshot's.
func (d *Distribution) Merge(s DistSnapshot) {
	if d == nil || s.Count == 0 {
		return
	}
	for _, b := range s.Buckets {
		if b.Index >= 0 && b.Index < sketchBuckets {
			d.counts[b.Index].Add(b.Count)
		}
	}
	d.count.Add(s.Count)
	d.record(s.Sum, s.Min, s.Max)
}
