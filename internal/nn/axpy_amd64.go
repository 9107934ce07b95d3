//go:build amd64 && !noasm

package nn

// useAVX selects the 4-lane axpy path and the register-accumulating
// accum kernel when the CPU and OS support YMM state; the amd64 baseline
// guarantees the 2-lane SSE2 axpy and the portable accumGeneric. Read by
// the assembly dispatch in axpy_amd64.s.
var useAVX = cpuHasAVX()

// cpuHasAVX is implemented in axpy_amd64.s (CPUID + XGETBV).
func cpuHasAVX() bool

//go:noescape
func axpyAsm(o, w *float64, n int, a float64)

//go:noescape
func reluFwdAsm(dst, src *float64, n int)

//go:noescape
func reluBwdAsm(dst, y, grad *float64, n int)

//go:noescape
func accumAsm(o *float64, n int, w *float64, ts *term, nt int)

// accum computes o[j] += Σ_t ts[t].v·w[ts[t].off+j], t ascending — the
// one hot kernel behind Dense forward, dx and gw (accum_amd64.s). Term
// offsets must ascend, as accumRows builds them: the assembly reads w
// unchecked, so the last term's row is bounds-checked here for all.
func accum(o, w []float64, ts []term) {
	if len(o) == 0 || len(ts) == 0 {
		return
	}
	if !useAVX {
		accumGeneric(o, w, ts)
		return
	}
	_ = w[ts[len(ts)-1].off+len(o)-1]
	accumAsm(&o[0], len(o), &w[0], &ts[0], len(ts))
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
