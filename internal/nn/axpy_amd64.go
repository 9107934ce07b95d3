//go:build amd64 && !noasm

package nn

// useAVX2 selects the 4-lane axpy path and the fused accumulate kernel
// when the CPU has AVX2 and the OS saves YMM state; otherwise axpy takes
// the 2-lane SSE2 path the amd64 baseline guarantees and accumRows the
// portable accumChunkGeneric. Read by the assembly dispatch in
// axpy_amd64.s.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 is implemented in axpy_amd64.s (CPUID + XGETBV).
func cpuHasAVX2() bool

//go:noescape
func axpyAsm(o, w *float64, n int, a float64)

//go:noescape
func reluFwdAsm(dst, src *float64, n int)

//go:noescape
func reluBwdAsm(dst, y, grad *float64, n int)

//go:noescape
func accumChunkAsm(o *float64, os, n int, b *float64, bs int, a *float64, ar, ak, cnt int, w *float64, ws, rows int)

// compactTab is the accumulate kernel's compaction table (accum_amd64.s):
// for each 4-bit mask of the non-zero lanes among four float64s, the
// VPERMD dword indices that move those lanes to the front in order, and
// how many there are; then the lane numbers 0–3.
var compactTab = func() (t struct {
	perm  [16][8]uint32
	count [16]uint8
	lane  [4]uint64
}) {
	for m := range t.perm {
		n := 0
		for l := uint32(0); l < 4; l++ {
			if m>>l&1 != 0 {
				t.perm[m][2*n], t.perm[m][2*n+1] = 2*l, 2*l+1
				n++
			}
		}
		t.count[m] = uint8(n)
	}
	t.lane = [4]uint64{0, 1, 2, 3}
	return t
}()

// accumChunk is accumRows' body for one k-chunk of cnt ≤ maxTerms terms:
// for each of rows output rows r it sets o[r·os+j], j < n, to
// b[r·bs+j] (+0 for a nil b) plus Σ_k a[r·ar+k·ak]·w[k·ws+j], skipping
// ±0 terms — one assembly call for all rows (accum_amd64.s). The
// assembly reads and writes unchecked, so the last element of each
// operand is bounds-checked here for all.
func accumChunk(o []float64, os, n int, b []float64, bs int, a []float64, ar, ak, cnt int, w []float64, ws, rows int) {
	if !useAVX2 {
		accumChunkGeneric(o, os, n, b, bs, a, ar, ak, cnt, w, ws, rows)
		return
	}
	if cnt < 1 || cnt > maxTerms {
		panic("nn: accumulate chunk out of range")
	}
	_ = o[(rows-1)*os+n-1]
	_ = a[(rows-1)*ar+(cnt-1)*ak]
	_ = w[(cnt-1)*ws+n-1]
	var bp *float64
	if b != nil {
		_ = b[(rows-1)*bs+n-1]
		bp = &b[0]
	}
	accumChunkAsm(&o[0], os, n, bp, bs, &a[0], ar, ak, cnt, &w[0], ws, rows)
}

// axpy computes o[j] += a*w[j] for all j — the SGD update's kernel. The
// packed implementation
// performs the exact scalar multiply-then-add sequence per element (no
// FMA — fusing would drop an intermediate rounding the reference
// sequence has), and every o[j] is independent, so results are
// bit-identical to axpyGeneric at any vector width.
func axpy(o, w []float64, a float64) {
	if len(o) == 0 {
		return
	}
	w = w[:len(o)]
	axpyAsm(&o[0], &w[0], len(o), a)
}

// reluFwd computes dst[i] = max-with-zero exactly as the reference
// branch (src[i] if src[i] > 0, else +0; NaN and -0 map to +0) using
// branch-free compare-then-mask lanes.
func reluFwd(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	src = src[:len(dst)]
	reluFwdAsm(&dst[0], &src[0], len(dst))
}

// reluBwd computes dst[i] = g[i] where y[i] > 0 and +0 elsewhere, the
// branch-free form of the reference ReLU backward.
func reluBwd(dst, y, g []float64) {
	if len(dst) == 0 {
		return
	}
	y = y[:len(dst)]
	g = g[:len(dst)]
	reluBwdAsm(&dst[0], &y[0], &g[0], len(dst))
}
