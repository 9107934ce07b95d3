//go:build amd64 && !noasm

package nn

import "math"

// useFMA selects the two elementwise kernels that evaluate exp — tanh
// forward and softmax's exponentials — whose exp is math/exp_amd64.s's
// fused multiply-add path and so needs FMA beside AVX2.
var useFMA = useAVX2 && cpuHasFMA()

// cpuHasFMA is implemented in elem_amd64.s (CPUID leaf 1, ECX bit 12).
func cpuHasFMA() bool

//go:noescape
func tanhFwdAsm(dst, src *float64, n int)

//go:noescape
func tanhBwdAsm(dst, y, grad *float64, n int)

//go:noescape
func mulAsm(dst, a, b *float64, n int)

//go:noescape
func expShiftAsm(dst, src *float64, n int, m float64) int

//go:noescape
func transposeAsm(wt, w *float64, in, out int)

//go:noescape
func dropMaskAsm(m, o, x *float64, u *uint64, n int, below, inv uint64, keep float64)

// elemConst is the elementwise kernels' constant table: each entry
// broadcast to a YMM register's four lanes, in the order elem_amd64.s's
// offsets name them.
var elemConst = func() (t [26][4]uint64) {
	for i, v := range [...]uint64{
		math.Float64bits(expLog2e), math.Float64bits(expLn2U), math.Float64bits(expLn2L),
		math.Float64bits(0.0625),
		math.Float64bits(expC8), math.Float64bits(expC7), math.Float64bits(expC6),
		math.Float64bits(expC5), math.Float64bits(expC4), math.Float64bits(expC3),
		math.Float64bits(expC2), math.Float64bits(1), math.Float64bits(2),
		0x3FF,              // the exponent bias
		1<<63 - 1, 1 << 63, // |x| and sign masks
		math.Float64bits(tanhMid), math.Float64bits(tanhMax),
		math.Float64bits(tanhP0), math.Float64bits(tanhP1), math.Float64bits(tanhP2),
		math.Float64bits(tanhQ0), math.Float64bits(tanhQ1), math.Float64bits(tanhQ2),
		math.Float64bits(expShiftLo), math.Float64bits(expShiftHi),
	} {
		t[i] = [4]uint64{v, v, v, v}
	}
	return t
}()

// expShiftLo and expShiftHi bound the arguments expShiftAsm takes: in
// between, 2**k is a normal number, so exp needs neither its overflow
// nor its subnormal scaling.
const (
	expShiftLo = -708
	expShiftHi = 709
)

// The wrappers run the kernels over the first len&^3 elements, bounds-
// checked here since the assembly is not, and finish the rest with the
// portable twins.

func tanhFwd(dst, src []float64) {
	src = src[:len(dst)]
	n := 0
	if useFMA {
		if n = len(dst) &^ 3; n > 0 {
			tanhFwdAsm(&dst[0], &src[0], n)
		}
	}
	tanhFwdGeneric(dst[n:], src[n:])
}

func tanhBwd(dst, y, g []float64) {
	y = y[:len(dst)]
	g = g[:len(dst)]
	n := 0
	if useAVX2 {
		if n = len(dst) &^ 3; n > 0 {
			tanhBwdAsm(&dst[0], &y[0], &g[0], n)
		}
	}
	tanhBwdGeneric(dst[n:], y[n:], g[n:])
}

func mul(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	n := 0
	if useAVX2 {
		if n = len(dst) &^ 3; n > 0 {
			mulAsm(&dst[0], &a[0], &b[0], n)
		}
	}
	mulGeneric(dst[n:], a[n:], b[n:])
}

// expShift hands the kernel all whole groups of four; the kernel stops
// at a group with an argument outside [expShiftLo, expShiftHi] (or
// NaN), which is done here before it resumes.
func expShift(dst, src []float64, m float64) {
	src = src[:len(dst)]
	for useFMA && len(dst) >= 4 {
		n := len(dst) &^ 3
		k := expShiftAsm(&dst[0], &src[0], n, m)
		if k < n {
			expShiftGeneric(dst[k:k+4], src[k:k+4], m)
			k += 4
		}
		dst, src = dst[k:], src[k:]
	}
	expShiftGeneric(dst, src, m)
}

func dropMask(m, o, x []float64, u []uint64, below, inv uint64, keep float64) {
	m, o, x = m[:len(u)], o[:len(u)], x[:len(u)]
	n := 0
	if useAVX2 {
		if n = len(u) &^ 3; n > 0 {
			dropMaskAsm(&m[0], &o[0], &x[0], &u[0], n, below, inv, keep)
		}
	}
	dropMaskGeneric(m[n:], o[n:], x[n:], u[n:], below, inv, keep)
}

// transpose moves the whole 4×4 blocks of w with the kernel and the
// last in%4 rows and out%4 columns here.
func transpose(wt, w []float64, in, out int) {
	if !useAVX2 || in < 4 || out < 4 {
		transposeGeneric(wt, w, in, out)
		return
	}
	_ = w[in*out-1]
	_ = wt[in*out-1]
	transposeAsm(&wt[0], &w[0], in, out)
	i4, j4 := in&^3, out&^3
	for i := 0; i < in; i++ {
		j := j4
		if i >= i4 {
			j = 0
		}
		for ; j < out; j++ {
			wt[j*in+i] = w[i*out+j]
		}
	}
}
