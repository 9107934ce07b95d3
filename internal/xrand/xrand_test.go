package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at draw %d: %d != %d", i, got, want)
		}
	}
}

// TestFillMatchesUint64 pins the bulk draw to the one-at-a-time stream:
// the same outputs in the same order, and the same state afterwards, at
// every block length including 0.
func TestFillMatchesUint64(t *testing.T) {
	a, b := New(5), New(5)
	for n := 0; n <= 70; n++ {
		got := make([]uint64, n)
		a.Fill(got)
		for i, g := range got {
			if want := b.Uint64(); g != want {
				t.Fatalf("block %d, draw %d: Fill %d, Uint64 %d", n, i, g, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("block %d: state %v after Fill, %v after Uint64", n, a.State(), b.State())
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() (*Source, *Source) {
		p := New(7)
		return p.Split(), p.Split()
	}
	a1, a2 := mk()
	b1, b2 := mk()
	for i := 0; i < 100; i++ {
		if a1.Uint64() != b1.Uint64() || a2.Uint64() != b2.Uint64() {
			t.Fatalf("split streams not reproducible at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(10) value %d drawn %d/10000 times, badly non-uniform", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) out of bounds: %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.05)
		if v < 95-1e-9 || v > 105+1e-9 {
			t.Fatalf("Jitter(100, 0.05) out of bounds: %v", v)
		}
	}
}

// Property: any seed produces values in the documented ranges.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := New(seed)
		for i := 0; i < int(draws)%64+1; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Split children with the same lineage are reproducible.
func TestQuickSplitReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(seed).Split()
		b := New(seed).Split()
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
