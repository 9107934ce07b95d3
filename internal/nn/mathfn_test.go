package nn

import (
	"math"
	"testing"

	"pipetune/internal/xrand"
)

// mathPins are (input, result) bit pairs of math.Exp, math.Log and
// math.Tanh recorded on an amd64 host with FMA: zeros of both signs,
// NaN, ±Inf, both sides of every branch threshold (exp's overflow,
// subnormal and underflow edges; log's sqrt(2)/2 split and subnormal
// inputs; tanh's 0.625 and ½·log(2**127)), and inputs whose results
// differ by one ulp where the host lacks FMA.
var mathPins = []struct {
	fn      string
	in, out uint64
}{
	{"exp", 0x0000000000000000, 0x3ff0000000000000},  // 0
	{"exp", 0x8000000000000000, 0x3ff0000000000000},  // -0
	{"exp", 0x7ff0000000000000, 0x7ff0000000000000},  // +Inf
	{"exp", 0xfff0000000000000, 0x0000000000000000},  // -Inf
	{"exp", 0x7ff8000000000001, 0x7ff8000000000001},  // NaN
	{"exp", 0x3ff0000000000000, 0x4005bf0a8b145769},  // 1
	{"exp", 0xbff0000000000000, 0x3fd78b56362cef38},  // -1
	{"exp", 0x40862e42fefa39ef, 0x7ff0000000000000},  // 709.782712893384
	{"exp", 0x40862e42fefa39f0, 0x7ff0000000000000},  // 709.7827128933841
	{"exp", 0x40862e42fefa39ee, 0x7ff0000000000000},  // 709.7827128933839
	{"exp", 0x40862e3d70a3d70a, 0x7ff0000000000000},  // 709.78
	{"exp", 0xc086231eb851eb85, 0x00101a5ff6ed496b},  // -708.39
	{"exp", 0xc086233333333333, 0x000ff15b469edf89},  // -708.4
	{"exp", 0xc087490a3d70a3d7, 0x0000000000000001},  // -745.13
	{"exp", 0xc087491eb851eb85, 0x0000000000000000},  // -745.14
	{"exp", 0xc087200000000000, 0x0000000000000055},  // -740
	{"exp", 0xc202a05f20000000, 0x0000000000000000},  // -1e+10
	{"exp", 0x01a56e1fc2f8f359, 0x3ff0000000000000},  // 1e-300
	{"exp", 0xbfd8cb75b85b50c0, 0x3fe5b8c9c8f88915},  // -0.3874182033880622
	{"exp", 0xc00428bce728f458, 0x3fb499929991180f},  // -2.5198915538190185
	{"exp", 0xc00d5c2a3f60de90, 0x3f9a167cc212df7d},  // -3.670002455848426
	{"exp", 0xc014c694713b11de, 0x3f76bbc8077c3d09},  // -5.193925637464842
	{"exp", 0xc0199b9c2ce51374, 0x3f5b2b68e81b0589},  // -6.4019629492585075
	{"exp", 0xc029d7ec4af31979, 0x3ec4813c975a1c29},  // -12.921724645781739
	{"exp", 0x3ff4000000000000, 0x400bec38edb0faf0},  // 1.25
	{"exp", 0x405601e678fc457b, 0x47dfffffffffffd4},  // 88.02969193111305
	{"log", 0x0000000000000000, 0xfff0000000000000},  // 0
	{"log", 0x8000000000000000, 0xfff0000000000000},  // -0
	{"log", 0xbff0000000000000, 0x7ff8000000000001},  // -1
	{"log", 0x7ff0000000000000, 0x7ff0000000000000},  // +Inf
	{"log", 0xfff0000000000000, 0x7ff8000000000001},  // -Inf
	{"log", 0x7ff8000000000001, 0x7ff8000000000001},  // NaN
	{"log", 0x3ff0000000000000, 0x0000000000000000},  // 1
	{"log", 0x4000000000000000, 0x3fe62e42fefa39ef},  // 2
	{"log", 0x3fe0000000000000, 0xbfe62e42fefa39ef},  // 0.5
	{"log", 0x3d719799812dea11, 0xc03ba18a998fffa0},  // 1e-12
	{"log", 0x0000000000000001, 0xc08628b76e3a7b61},  // 5e-324
	{"log", 0x0010000000000000, 0xc086232bdd7abcd2},  // 2.2250738585072014e-308
	{"log", 0x3fe6a09e667f3bcd, 0xbfd62e42fefa39ee},  // 0.7071067811865476
	{"log", 0x3fe6a09e667f3bce, 0xbfd62e42fefa39eb},  // 0.7071067811865477
	{"log", 0x3fe6a09e667f3bcc, 0xbfd62e42fefa39f1},  // 0.7071067811865475
	{"log", 0x7fefffffffffffff, 0x40862e42fefa39ef},  // 1.7976931348623157e+308
	{"log", 0x3fd3333333333333, 0xbff34378fcbda721},  // 0.3
	{"log", 0x3fefff2e48e8a71e, 0xbf1a3738d2cf1cc2},  // 0.9999
	{"log", 0x3fbf972474538ef3, 0xc000bd147400b759},  // 0.1234
	{"tanh", 0x0000000000000000, 0x0000000000000000}, // 0
	{"tanh", 0x8000000000000000, 0x8000000000000000}, // -0
	{"tanh", 0x7ff8000000000001, 0x7ff8000000000001}, // NaN
	{"tanh", 0x7ff0000000000000, 0x3ff0000000000000}, // +Inf
	{"tanh", 0xfff0000000000000, 0xbff0000000000000}, // -Inf
	{"tanh", 0x3fe4000000000000, 0x3fe1bf47eabb8f96}, // 0.625
	{"tanh", 0x3fe3ffffffffffff, 0x3fe1bf47eabb8f94}, // 0.6249999999999999
	{"tanh", 0xbfe4000000000000, 0xbfe1bf47eabb8f96}, // -0.625
	{"tanh", 0xbfe3ffffffffffff, 0xbfe1bf47eabb8f94}, // -0.6249999999999999
	{"tanh", 0x404601e678fc457b, 0x3ff0000000000000}, // 44.014845965556525
	{"tanh", 0x404601e678fc457c, 0x3ff0000000000000}, // 44.01484596555653
	{"tanh", 0x404601e678fc457a, 0x3ff0000000000000}, // 44.01484596555652
	{"tanh", 0xc04601e678fc457c, 0xbff0000000000000}, // -44.01484596555653
	{"tanh", 0x4046000000000000, 0x3ff0000000000000}, // 44
	{"tanh", 0xc046000000000000, 0xbff0000000000000}, // -44
	{"tanh", 0x01a56e1fc2f8f359, 0x01a56e1fc2f8f359}, // 1e-300
	{"tanh", 0x0000000000000001, 0x0000000000000001}, // 5e-324
	{"tanh", 0x3fd3333333333333, 0x3fd2a4dda7d914fa}, // 0.3
	{"tanh", 0xbfe0000000000000, 0xbfdd9353d7568af3}, // -0.5
	{"tanh", 0x3ffb333333333333, 0x3fedeedf00d3e7f5}, // 1.7
	{"tanh", 0xc002666666666666, 0xbfef5cf31e1c8103}, // -2.3
	{"tanh", 0x4034000000000000, 0x3ff0000000000000}, // 20
	{"tanh", 0x3fc8cb75b85b50be, 0x3fc87d3dc3ebb53a}, // 0.19370910169403105
	{"tanh", 0xbff428bce728f458, 0xbfeb3bcb72cdf53f}, // -1.2599457769095093
	{"tanh", 0x3ff8ea74b490b3e4, 0x3fed4773d40994ef}, // 1.5572402051286582
	{"tanh", 0xbffb2e8c99aa4ec5, 0xbfededb5036fcf04}, // -1.6988645556020157
	{"tanh", 0x3ff33350336ef7b8, 0x3feaad5e1e226ff7}, // 1.2000276574249096
}

// TestMathPinned holds exp, log and tanh to the bits an FMA host's
// standard library produced, on every host and under -tags noasm.
func TestMathPinned(t *testing.T) {
	fns := map[string]func(float64) float64{"exp": exp, "log": log, "tanh": tanh}
	for _, p := range mathPins {
		x := math.Float64frombits(p.in)
		if got := math.Float64bits(fns[p.fn](x)); got != p.out {
			t.Errorf("%s(%v) = %#016x, want %#016x", p.fn, x, got, p.out)
		}
	}
}

// TestMathMatchesStdlib compares exp, log and tanh with the standard
// library over a million inputs each, where the standard library is the
// one the pins were recorded from: amd64 with FMA, told apart by an
// input whose math.Exp differs by one ulp without it.
func TestMathMatchesStdlib(t *testing.T) {
	if math.Float64bits(math.Exp(-0.3874182033880622)) != 0x3fe5b8c9c8f88915 {
		t.Skip("math.Exp is not amd64's FMA path on this host")
	}
	r := xrand.New(3)
	for i := 0; i < 1_000_000; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = r.Range(-20, 0) // softmax's range
		case 1:
			x = r.Range(-750, 710)
		case 2:
			x = math.Float64frombits(r.Uint64())
		default:
			x = r.Range(-50, 50)
		}
		for _, f := range []struct {
			name     string
			got, std func(float64) float64
			in       float64
		}{{"exp", exp, math.Exp, x}, {"tanh", tanh, math.Tanh, x}, {"log", log, math.Log, math.Abs(x)}} {
			g, w := f.got(f.in), f.std(f.in)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s(%v) = %#016x, math: %#016x", f.name, f.in, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}
