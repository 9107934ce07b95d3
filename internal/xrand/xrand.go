// Package xrand provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the PipeTune reproduction.
//
// Determinism matters here more than statistical sophistication: every
// experiment in the paper is regenerated from a single master seed, and the
// ability to Split a source lets independent components (dataset synthesis,
// weight initialisation, arrival processes, PMU noise) draw from disjoint
// streams without coordinating.
//
// The implementation is xoshiro256** seeded via splitmix64, the combination
// recommended by Blackman & Vigna. Only the standard library is used.
package xrand

import "math"

// Source is a deterministic xoshiro256** PRNG. It is NOT safe for concurrent
// use; Split off per-goroutine sources instead.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is used
// to expand a 64-bit seed into the 256-bit xoshiro state, and to derive
// child seeds in Split.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any seed
	// cannot produce four zero outputs in a row, but guard regardless.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fill sets dst to the next len(dst) outputs of Uint64, in order, and
// advances the source past them. The state stays in locals for the
// whole block, so a bulk draw costs the generator's arithmetic, not a
// load and store of the state per output.
func (r *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Split derives an independent child source. The child's stream is a pure
// function of the parent's state at the time of the call, so a fixed
// sequence of Split calls always yields the same family of streams.
func (r *Source) Split() *Source {
	seed := r.Uint64()
	return New(seed)
}

// State returns the full 256-bit generator state: a stream's position,
// comparable across sources (the nn parity suites fingerprint dropout
// streams with it).
func (r *Source) State() [4]uint64 { return r.s }

// Int63 returns a non-negative 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand semantics (a programming error, not a runtime condition).
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless method would be faster; plain modulo of a
	// 64-bit draw has negligible bias for the small n used here.
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
//
// The draws below wrap every product that feeds an add or subtract in
// float64(), which rounds it, so no target fuses the pair into one
// multiply-add (arm64 does, amd64 does not) and every architecture draws
// the same bits. Here the scaling is exact, but once inlined a caller
// would fuse it into its next add all the same.
func (r *Source) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Source) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1). Scale by
// the desired mean to model inter-arrival times.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Range returns a uniform float64 in [lo, hi).
func (r *Source) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// Jitter returns v scaled by a uniform factor in [1-eps, 1+eps]. It is the
// standard way the simulators add bounded measurement noise.
func (r *Source) Jitter(v, eps float64) float64 {
	return v * (1 + float64(eps*(float64(2*r.Float64())-1)))
}
