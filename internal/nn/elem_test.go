package nn

import (
	"math"
	"testing"

	"pipetune/internal/xrand"
)

// elemWidths are the lengths the elementwise kernels are checked at:
// every residue of their groups of four up to 64, and the text models'
// 151- and 300-wide layers.
var elemWidths = func() []int {
	w := []int{151, 300}
	for n := 1; n <= 64; n++ {
		w = append(w, n)
	}
	return w
}()

// elemSpecials are the inputs where a vector kernel and its scalar twin
// part ways first: zeros of both signs, NaN, ±Inf, subnormals, and both
// sides of every threshold the kernels branch or blend on — tanh's
// tanhMid and tanhMax, and expShiftAsm's [expShiftLo, expShiftHi] with
// exp's own overflow and underflow edges beyond it.
func elemSpecials() []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	dn := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	var s []float64
	for _, v := range []float64{
		0, math.NaN(), math.Inf(1), 5e-324, 2.2250738585072014e-308, 1.5e-310,
		tanhMid, dn(tanhMid), tanhMax, up(tanhMax), dn(tanhMax),
		-708, dn(-708), 709, up(709), expOverflow, up(expOverflow), -745.2, -745.1, 1e300,
	} {
		s = append(s, v, -v)
	}
	return s
}

// elemInput fills a slice of n values drawn from [lo, hi), a quarter of
// them replaced by elemSpecials, starting at an offset that varies the
// alignment.
func elemInput(r *xrand.Source, n int, lo, hi float64) []float64 {
	sp := elemSpecials()
	buf := make([]float64, n+3)
	x := buf[n%4:][:n]
	for i := range x {
		x[i] = r.Range(lo, hi)
		if r.Float64() < 0.25 {
			x[i] = sp[r.Intn(len(sp))]
		}
	}
	return x
}

// sameBits reports whether got and want agree bit for bit, except that
// two NaNs agree whatever their payloads: which operand's payload a
// vector instruction keeps is not fixed by the scalar twin's Go.
func sameBits(t *testing.T, what string, n int, in, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s n=%d [%d] (in %v): kernel %#016x, twin %#016x", what, n, i, in[i], math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestTanhKernelsMatchGeneric pins tanhFwd and tanhBwd — the AVX2/FMA
// kernels on amd64 — to the scalar twins bit for bit, over inputs on
// both sides of each of tanh's branches.
func TestTanhKernelsMatchGeneric(t *testing.T) {
	r := xrand.New(13)
	for _, n := range elemWidths {
		for _, span := range []float64{0.5, 0.7, 3, 50} {
			x := elemInput(r, n, -span, span)
			got, want := make([]float64, n), make([]float64, n)
			tanhFwd(got, x)
			tanhFwdGeneric(want, x)
			sameBits(t, "tanh forward", n, x, got, want)

			y := elemInput(r, n, -1, 1)
			g := elemInput(r, n, -2, 2)
			tanhBwd(got, y, g)
			tanhBwdGeneric(want, y, g)
			sameBits(t, "tanh backward", n, y, got, want)
		}
	}
}

// TestExpShiftMatchesGeneric pins softmax's exponentials — the kernel
// that stops at a group of four it cannot take, and the scalar exp that
// finishes it — to the twin, with shifts that put arguments on both
// sides of the kernel's range and of exp's overflow and underflow, and
// NaN or infinite shifts.
func TestExpShiftMatchesGeneric(t *testing.T) {
	r := xrand.New(17)
	for _, n := range elemWidths {
		for _, m := range []float64{0, 3.5, -5, 700, 730, -700, math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := elemInput(r, n, -20, 20)
			got, want := make([]float64, n), make([]float64, n)
			expShift(got, x, m)
			expShiftGeneric(want, x, m)
			sameBits(t, "expShift", n, x, got, want)
		}
	}
}

// TestDropoutKernelsMatchGeneric pins dropout's divide-and-mask and its
// backward multiply to the twins: keep probabilities from 0.1 to 1 and a
// dropped-everything 0, raw 64-bit draws, and inputs and gradients with
// every special value.
func TestDropoutKernelsMatchGeneric(t *testing.T) {
	r := xrand.New(19)
	for _, n := range elemWidths {
		for _, keep := range []float64{0, 0.1, 0.5, 0.75, 1} {
			var below uint64
			if keep > 0 {
				below = uint64(math.Ceil(keep * (1 << 53)))
			}
			inv := math.Float64bits(1 / keep)
			u := make([]uint64, n)
			for i := range u {
				u[i] = r.Uint64()
			}
			x := elemInput(r, n, -3, 3)
			gm, wm := make([]float64, n), make([]float64, n)
			got, want := make([]float64, n), make([]float64, n)
			dropMask(gm, got, x, u, below, inv, keep)
			dropMaskGeneric(wm, want, x, u, below, inv, keep)
			sameBits(t, "dropout mask", n, x, gm, wm)
			sameBits(t, "dropout output", n, x, got, want)

			g := elemInput(r, n, -2, 2)
			mul(got, g, wm)
			mulGeneric(want, g, wm)
			sameBits(t, "dropout backward", n, g, got, want)
		}
	}
}

// TestTransposeMatchesGeneric pins Dense's weight transpose — whole
// 4×4 blocks in the kernel, the edges in Go — to the 8×8-blocked loop
// at every residue of both sides mod 4 and at the zoo's widest layers.
func TestTransposeMatchesGeneric(t *testing.T) {
	r := xrand.New(23)
	shapes := [][2]int{{300, 151}, {128, 300}, {48, 24}}
	for in := 1; in <= 13; in++ {
		for out := 1; out <= 13; out++ {
			shapes = append(shapes, [2]int{in, out})
		}
	}
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		w := elemInput(r, in*out, -2, 2)
		got, want := make([]float64, in*out), make([]float64, in*out)
		transpose(got, w, in, out)
		transposeGeneric(want, w, in, out)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d: wt[%d] = %#x, want %#x", in, out, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
