//go:build !amd64 || noasm

package nn

// Off amd64, and on it under the noasm tag (how CI runs the parity
// suites over this file), the kernels are the portable loops —
// bit-identical to the assembly by construction.

func accumChunk(o []float64, os, n int, a []float64, ar, ak, cnt int, w []float64, ws, rows int) {
	accumChunkGeneric(o, os, n, a, ar, ak, cnt, w, ws, rows)
}

func axpy(o, w []float64, a float64) { axpyGeneric(o, w, a) }

func reluFwd(dst, src []float64) { reluFwdGeneric(dst, src) }

func reluBwd(dst, y, g []float64) { reluBwdGeneric(dst, y, g) }
