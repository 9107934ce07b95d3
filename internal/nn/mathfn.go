package nn

import "math"

// exp, log and tanh are the package's own scalar elementary functions.
// The standard library's are not one function on every host: on amd64
// math.Exp takes a fused multiply-add path when the CPU has AVX and FMA
// and a separately rounded one when it does not, arm64 has its own Exp,
// and a compiler that fuses is free to fuse math/tanh.go's and log.go's
// plain-Go polynomials. A trial's bits must not depend on the host that
// trains it, so these three pin the bits amd64 produces with FMA: exp
// and log are ports of math/exp_amd64.s (its FMA path, through
// math.FMA, which is exact everywhere) and math/log_amd64.s, tanh a port
// of math/tanh.go on top of this exp. Every product that feeds an add is
// wrapped in float64(), which forbids the compiler to fuse the two.
// TestMathPinned holds them to a table recorded on an FMA host, and the
// vector kernels in elem_amd64.s are tested against them.

const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln 2
	expLn2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	// The Taylor coefficients of exp_amd64.s, 1/n! from n = 8 down to 2.
	expC8 = 2.4801587301587301587e-5
	expC7 = 1.9841269841269841270e-4
	expC6 = 1.3888888888888888889e-3
	expC5 = 8.3333333333333333333e-3
	expC4 = 4.1666666666666666667e-2
	expC3 = 1.6666666666666666667e-1
	expC2 = 0.5
)

// exp returns e**x exactly as math.Exp does on amd64 with FMA: k =
// round(x/ln 2) by CVTSD2SL (to nearest even), x − k·ln 2 in two fused
// steps, a degree-8 Taylor series on a sixteenth of that, four squarings
// of the form r·(r+2), then the scaling by 2**k — in two steps into the
// subnormal range.
func exp(x float64) float64 {
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) >= 0x7FF0000000000000: // NaN or ±Inf
		if b == 0xFFF0000000000000 {
			return 0
		}
		return x
	case x > expOverflow:
		return math.Inf(1)
	}
	t := math.RoundToEven(expLog2e * x)
	if t < -1075 { // 2**k·r underflows to +0 (and k may not fit an int32)
		return 0
	}
	k := int64(t)
	fk := float64(k) // +0 for k = 0, as CVTSL2SD gives
	r := math.FMA(-fk, expLn2U, x)
	r = math.FMA(-fk, expLn2L, r)
	r *= 0.0625
	p := math.FMA(expC8, r, expC7)
	p = math.FMA(p, r, expC6)
	p = math.FMA(p, r, expC5)
	p = math.FMA(p, r, expC4)
	p = math.FMA(p, r, expC3)
	p = math.FMA(p, r, expC2)
	p = math.FMA(p, r, 1)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r, r+2, 1)
	e := k + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e <= 0:
		r *= math.Float64frombits(uint64(e+0x3FE) << 52)
		return r * math.Float64frombits(1<<52)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

const (
	logHSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
	logLn2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	logLn2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
	logL1     = 6.666666666666735130e-01   // 0x3FE5555555555593
	logL2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
	logL3     = 2.857142874366239149e-01   // 0x3FD2492494229359
	logL4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
	logL5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
	logL6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
	logL7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
)

// log returns the natural logarithm exactly as math.Log does on amd64
// (math/log_amd64.s), subnormal inputs included: that kernel splits x
// into mantissa and exponent by its bits alone, without normalising.
func log(x float64) float64 {
	b := math.Float64bits(x)
	switch {
	case b&^(1<<63) == 0:
		return math.Inf(-1)
	case int64(b) < 0:
		return math.Float64frombits(0x7FF8000000000001)
	case b >= 0x7FF0000000000000: // +Inf or NaN
		return x
	}
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3FE0000000000000)
	k := float64(int64(b>>52&0x7FF) - 0x3FE)
	if !(logHSqrt2 < f1) {
		k--
		f1 *= 2
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (logL1 + float64(s4*(logL3+float64(s4*(logL5+float64(s4*logL7)))))))
	t2 := float64(s4 * (logL2 + float64(s4*(logL4+float64(s4*logL6)))))
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*logLn2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*logLn2Lo))) - f)
}

const (
	tanhMax = 0.5 * 8.8029691931113054295988e+01 // ½·log(2**127): beyond it tanh is ±1
	tanhMid = 0.625                              // from here up tanh goes through exp
	tanhP0  = -9.64399179425052238628e-1
	tanhP1  = -9.92877231001918586564e1
	tanhP2  = -1.61468768441708447952e3
	tanhQ0  = 1.12811678491632931402e2
	tanhQ1  = 2.23548839060100448583e3
	tanhQ2  = 4.84406305325125486048e3
)

// tanh returns the hyperbolic tangent as math.Tanh does on amd64 with
// FMA: ±1 beyond tanhMax, 1 − 2/(e**2|x| + 1) from tanhMid, and below
// it Cephes' rational approximation, which returns ±0 as itself.
func tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhMax:
		if x < 0 {
			return -1
		}
		return 1
	case z >= tanhMid:
		s := exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		num := float64(float64(float64(tanhP0*s)+tanhP1)*s) + tanhP2
		den := float64(float64(float64((s+tanhQ0)*s)+tanhQ1)*s) + tanhQ2
		z = x + float64(float64(x*s)*num)/den
	}
	return z
}
