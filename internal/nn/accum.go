package nn

import "math"

// term is one non-zero contribution to an accumGeneric call: the scalar
// v and the element offset of the row of w it scales.
type term struct {
	v   float64
	off int
}

const (
	// maxTerms bounds a k-chunk, and so one row's term list, which lives
	// in a fixed-size stack scratch (1 KiB, the assembly's frame). A
	// power of two: compact masks its write index with maxTerms-1.
	maxTerms = 64
	// panelElems sizes the k-chunk: the rows of w one chunk touches
	// (chunk × row stride float64s, 24 KiB) stay in L1 while every
	// output row of the shard accumulates them.
	panelElems = 3072
)

// accumGeneric computes o[j] += Σ_t ts[t].v · w[ts[t].off+j], t
// ascending, holding four o[j] in locals across all terms. Per element
// it is the straight loop's sequence of one rounded multiply and one
// rounded add per term — the float64 conversion forbids the fused
// multiply-add some targets would otherwise emit — so it is the
// reference the assembly is compared with, and with compact the only
// path without AVX2.
func accumGeneric(o, w []float64, ts []term) {
	j := 0
	for ; j+4 <= len(o); j += 4 {
		a0, a1, a2, a3 := o[j], o[j+1], o[j+2], o[j+3]
		for _, t := range ts {
			r := w[t.off+j : t.off+j+4]
			a0 += float64(t.v * r[0])
			a1 += float64(t.v * r[1])
			a2 += float64(t.v * r[2])
			a3 += float64(t.v * r[3])
		}
		o[j], o[j+1], o[j+2], o[j+3] = a0, a1, a2, a3
	}
	for ; j < len(o); j++ {
		a := o[j]
		for _, t := range ts {
			a += float64(t.v * w[t.off+j])
		}
		o[j] = a
	}
}

// compact writes the non-zero ones of the cnt values a[0], a[ak],
// a[2·ak], … to ts in order, each with the offset of its row of w (0,
// ws, 2·ws, …), and returns how many it kept. It always writes and
// advances only past a non-zero: bits<<1 is zero exactly for ±0, and
// (b|-b)>>63 is its "non-zero" bit without a data-dependent branch —
// post-ReLU and dropped-out rows are 50–75 % zeros, unpredictably placed.
//
// Its own function so the loop's live values stay in registers, and ts
// a slice rather than the array's pointer: indexing through the pointer
// nil-checks with a load of ts[0] every iteration, which the stores to
// ts[0] (until the first non-zero) make a memory-ordering hazard that
// doubled the loop's cost on sparse rows.
//
//go:noinline
func compact(ts []term, a []float64, ak, cnt, ws int) int {
	ts = ts[:maxTerms]
	nt, off := 0, 0
	for i := 0; cnt > 0; cnt-- {
		v := a[i]
		i += ak
		ts[nt&(maxTerms-1)] = term{v, off}
		off += ws
		b := math.Float64bits(v) << 1
		nt += int((b | -b) >> 63)
	}
	return nt
}

// accumRows is the one loop nest behind Dense forward, dx and gw. For
// every output row r in [lo, hi) it computes
//
//	o[r*os+j] = b[r*bs+j] + Σ_k a[r*ar+k*ak] · w[k*ws+j]    j in [0, n), k in [0, kn) ascending
//
// where the start b is o itself (bs = os: add to what o holds), a bias
// row (bs = 0) or nil (+0), skipping the terms whose a is ±0 (NaN is
// kept — the rule the straight loops' `== 0 → continue` had; see
// Dense.Backward for why skipping is bit-exact). The k range is cut
// into chunks whose w panel fits L1, and accumChunk runs one chunk over
// all the rows: per row it compacts the chunk's non-zero terms once,
// branch-free, into a stack list and accumulates the list with o's
// columns held in registers, the first chunk starting them from b and
// every later one from o. Chunks ascend, so every o element still sees
// its terms in ascending k: the result is bit-identical to the per-term
// axpy nests this replaces, at any chunk size.
func accumRows(o []float64, os, n int, b []float64, bs int, a []float64, ar, ak, kn int, w []float64, ws, lo, hi int) {
	if n == 0 || lo >= hi {
		return
	}
	if b != nil {
		b = b[lo*bs:]
	} else {
		bs = 0 // the kernel steps its start pointer by bs, nil or not
	}
	o = o[lo*os:]
	if kn == 0 {
		for r := 0; r < hi-lo; r++ {
			start(o[r*os:r*os+n], b, r*bs)
		}
		return
	}
	kc := min(max(panelElems/ws, 8), maxTerms)
	for k0 := 0; k0 < kn; k0 += kc {
		k1 := min(k0+kc, kn)
		accumChunk(o, os, n, b, bs, a[lo*ar+k0*ak:], ar, ak, k1-k0, w[k0*ws:], ws, hi-lo)
		b, bs = o, os
	}
}

// start sets o to its start: b[off:] (a no-op when that is o), or +0
// when b is nil.
func start(o, b []float64, off int) {
	if b == nil {
		clear(o)
	} else if &b[off] != &o[0] {
		copy(o, b[off:off+len(o)])
	}
}

// accumChunkGeneric is accumChunk's portable twin, the path without
// AVX2: per row, set the start, compact the chunk's terms, then
// accumGeneric.
func accumChunkGeneric(o []float64, os, n int, b []float64, bs int, a []float64, ar, ak, cnt int, w []float64, ws, rows int) {
	var ts [maxTerms]term
	for r := 0; r < rows; r++ {
		row := o[r*os : r*os+n]
		start(row, b, r*bs)
		nt := compact(ts[:], a[r*ar:], ak, cnt, ws)
		accumGeneric(row, w, ts[:nt])
	}
}
