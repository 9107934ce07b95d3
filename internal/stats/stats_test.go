package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"uniform", []float64{2, 2, 2}, 2},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, tc := range cases {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("empty percentile err = %v, want ErrEmpty", err)
	}
	// Out-of-range p is clamped.
	got, _ := Percentile(xs, 150)
	if got != 5 {
		t.Fatalf("Percentile(150) = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated its input: %v", xs)
	}
}

func TestTrapezoid(t *testing.T) {
	// Integral of y = x from 0 to 4 is 8; trapezoid is exact for linear.
	y := []float64{0, 1, 2, 3, 4}
	if got := TrapezoidUniform(y, 1); !almostEqual(got, 8, 1e-12) {
		t.Fatalf("TrapezoidUniform = %v, want 8", got)
	}
	if got := TrapezoidUniform([]float64{5}, 1); got != 0 {
		t.Fatalf("single point integral = %v, want 0", got)
	}
}

func TestTrapezoidConstantPower(t *testing.T) {
	// 100 W held for 60 one-second samples => ~5900 J (59 intervals).
	y := make([]float64, 60)
	for i := range y {
		y[i] = 100
	}
	got := TrapezoidUniform(y, 1)
	if !almostEqual(got, 5900, 1e-9) {
		t.Fatalf("constant power energy = %v, want 5900", got)
	}
}

func TestLog1pScale(t *testing.T) {
	out := Log1pScale([]float64{0, math.E - 1, -5})
	if !almostEqual(out[0], 0, 1e-12) || !almostEqual(out[1], 1, 1e-12) {
		t.Fatalf("Log1pScale = %v", out)
	}
	if out[2] != 0 {
		t.Fatalf("negative input should clamp to 0, got %v", out[2])
	}
}

func TestRelDiffPercent(t *testing.T) {
	if got := RelDiffPercent(150, 100); !almostEqual(got, 50, 1e-12) {
		t.Fatalf("RelDiffPercent = %v, want 50", got)
	}
	if got := RelDiffPercent(50, 100); !almostEqual(got, -50, 1e-12) {
		t.Fatalf("RelDiffPercent = %v, want -50", got)
	}
	if got := RelDiffPercent(1, 0); got != 0 {
		t.Fatalf("zero baseline = %v, want 0", got)
	}
}

// Property: mean lies within [min, max] of the sample.
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= slices.Min(xs)-1e-6 && m <= slices.Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: trapezoid of non-negative samples is non-negative.
func TestQuickTrapezoidSign(t *testing.T) {
	f := func(raw []float64) bool {
		y := make([]float64, len(raw))
		for i, v := range raw {
			y[i] = math.Abs(math.Mod(v, 1e6))
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		return TrapezoidUniform(y, 1) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
