package nn

import "math"

// The portable twins of the elementwise passes and of Dense's weight
// transpose: the only path off amd64, without AVX2 (FMA for the two
// that evaluate exp) and under the noasm tag, and the reference the
// vector kernels in elem_amd64.s are compared with bit for bit. On
// amd64 they also finish the last len%4 elements the kernels leave.

// tanhFwdGeneric computes dst[i] = tanh(src[i]).
func tanhFwdGeneric(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = tanh(v)
	}
}

// tanhBwdGeneric computes dst[i] = g[i]·(1 − y[i]²), the gradient
// through a tanh whose output was y.
func tanhBwdGeneric(dst, y, g []float64) {
	y = y[:len(dst)]
	g = g[:len(dst)]
	for i, v := range y {
		dst[i] = g[i] * (1 - float64(v*v))
	}
}

// mulGeneric computes dst[i] = a[i]·b[i].
func mulGeneric(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i, v := range a {
		dst[i] = v * b[i]
	}
}

// expShiftGeneric computes dst[i] = exp(src[i] − m), softmax's
// exponentials of a row shifted by its maximum.
func expShiftGeneric(dst, src []float64, m float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = exp(v - m)
	}
}

// dropMaskGeneric applies one block of dropout draws u to x, writing
// the mask m and the output o: element j is kept when u[j]>>11 <
// below, and then m[j] holds the bits inv (1/keep) and o[j] x[j]/keep;
// a dropped element is +0 in both. u>>11 and below are at most 2⁵³, so
// the difference's sign bit is set exactly when the draw is below, and
// its negation is the all-ones or all-zeros word that masks both —
// without the branch a draw taken with probability keep would
// mispredict.
func dropMaskGeneric(m, o, x []float64, u []uint64, below, inv uint64, keep float64) {
	m, o, x = m[:len(u)], o[:len(u)], x[:len(u)]
	for j, b := range u {
		kept := -((b>>11 - below) >> 63)
		m[j] = math.Float64frombits(inv & kept)
		o[j] = math.Float64frombits(math.Float64bits(x[j]/keep) & kept)
	}
}

// transposeGeneric writes the in×out row-major w to wt as out×in, in
// 8×8 blocks so that both sides touch whole cache lines, not one line
// per element of the strided side.
func transposeGeneric(wt, w []float64, in, out int) {
	const blk = 8
	for i0 := 0; i0 < in; i0 += blk {
		i1 := min(i0+blk, in)
		for j0 := 0; j0 < out; j0 += blk {
			j1 := min(j0+blk, out)
			for i := i0; i < i1; i++ {
				for j, v := range w[i*out+j0 : i*out+j1] {
					wt[(j0+j)*in+i] = v
				}
			}
		}
	}
}
