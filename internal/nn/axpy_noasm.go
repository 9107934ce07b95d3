//go:build !amd64 || noasm

package nn

// Off amd64, and on it under the noasm tag (how CI runs the parity
// suites over this file), the kernels are the portable loops —
// bit-identical to the assembly by construction.

func accumChunk(o []float64, os, n int, b []float64, bs int, a []float64, ar, ak, cnt int, w []float64, ws, rows int) {
	accumChunkGeneric(o, os, n, b, bs, a, ar, ak, cnt, w, ws, rows)
}

func axpy(o, w []float64, a float64) { axpyGeneric(o, w, a) }

func reluFwd(dst, src []float64) { reluFwdGeneric(dst, src) }

func reluBwd(dst, y, g []float64) { reluBwdGeneric(dst, y, g) }

func tanhFwd(dst, src []float64) { tanhFwdGeneric(dst, src) }

func tanhBwd(dst, y, g []float64) { tanhBwdGeneric(dst, y, g) }

func mul(dst, a, b []float64) { mulGeneric(dst, a, b) }

func expShift(dst, src []float64, m float64) { expShiftGeneric(dst, src, m) }

func dropMask(m, o, x []float64, u []uint64, below, inv uint64, keep float64) {
	dropMaskGeneric(m, o, x, u, below, inv, keep)
}

func transpose(wt, w []float64, in, out int) { transposeGeneric(wt, w, in, out) }
