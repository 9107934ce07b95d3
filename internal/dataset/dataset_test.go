package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func gen(t *testing.T, w workload.Workload) (*Set, *Set) {
	t.Helper()
	train, test, err := Generate(w, 42, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

// row returns sample i's features as a fresh dense slice.
func row(s *Set, i int) []float64 {
	f := make([]float64, s.Dim)
	s.Row(i, f)
	return f
}

func TestGenerateShapes(t *testing.T) {
	cases := []struct {
		w       workload.Workload
		dim     int
		classes int
	}{
		{workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}, 64, 10},
		{workload.Workload{Model: workload.LeNet5, Dataset: workload.FashionMNIST}, 64, 10},
		{workload.Workload{Model: workload.CNN, Dataset: workload.News20}, 128, 20},
		{workload.Workload{Model: workload.Jacobi, Dataset: workload.Rodinia}, 32, 4},
	}
	for _, tc := range cases {
		t.Run(tc.w.Name(), func(t *testing.T) {
			train, test := gen(t, tc.w)
			if train.Dim != tc.dim || train.NumClasses != tc.classes {
				t.Fatalf("train dim/classes = %d/%d, want %d/%d",
					train.Dim, train.NumClasses, tc.dim, tc.classes)
			}
			if train.Len() != DefaultConfig().TrainSize || test.Len() != DefaultConfig().TestSize {
				t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
			}
			for i := 0; i < train.Len(); i++ {
				if l := train.Label(i); l < 0 || l >= tc.classes {
					t.Fatalf("label %d out of range", l)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	a, _, err := Generate(w, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(w, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatalf("labels diverge at %d", i)
		}
		fa, fb := row(a, i), row(b, i)
		for d := range fa {
			if fa[d] != fb[d] {
				t.Fatalf("features diverge at sample %d dim %d", i, d)
			}
		}
	}
}

func TestTypeIIWorkloadsShareDataset(t *testing.T) {
	cnn, _, err := Generate(workload.Workload{Model: workload.CNN, Dataset: workload.News20}, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lstm, _, err := Generate(workload.Workload{Model: workload.LSTM, Dataset: workload.News20}, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cnn.Len(); i++ {
		if cnn.Label(i) != lstm.Label(i) {
			t.Fatal("Type-II workloads should share the exact same corpus")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	a, _, _ := Generate(w, 1, DefaultConfig())
	b, _, _ := Generate(w, 2, DefaultConfig())
	same := 0
	for i := 0; i < a.Len(); i++ {
		if row(a, i)[0] == row(b, i)[0] {
			same++
		}
	}
	if same > a.Len()/10 {
		t.Fatalf("seeds 1 and 2 share %d/%d first features", same, a.Len())
	}
}

func TestClassBalance(t *testing.T) {
	for _, w := range workload.Catalog() {
		train, _ := gen(t, w)
		counts := make([]int, train.NumClasses)
		for i := 0; i < train.Len(); i++ {
			counts[train.Label(i)]++
		}
		want := train.Len() / train.NumClasses
		for c, n := range counts {
			if n < want-1 || n > want+1 {
				t.Fatalf("%s class %d has %d samples, want ~%d", w.Name(), c, n, want)
			}
		}
	}
}

func TestBagOfWordsNonNegative(t *testing.T) {
	train, _ := gen(t, workload.Workload{Model: workload.CNN, Dataset: workload.News20})
	for i := 0; i < train.Len(); i++ {
		for _, f := range row(train, i) {
			if f < 0 {
				t.Fatalf("bag-of-words feature negative: %v", f)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	if _, _, err := Generate(w, 1, Config{TrainSize: 0, TestSize: 10}); err == nil {
		t.Fatal("zero train size accepted")
	}
	if _, _, err := Generate(w, 1, Config{TrainSize: 10, TestSize: -1}); err == nil {
		t.Fatal("negative test size accepted")
	}
}

func TestClassesAreLinearlySeparableEnough(t *testing.T) {
	// Nearest-prototype classification on the synthetic MNIST stand-in
	// should comfortably beat chance — otherwise no model could learn it.
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, test := gen(t, w)
	centroids := make([][]float64, train.NumClasses)
	counts := make([]int, train.NumClasses)
	for c := range centroids {
		centroids[c] = make([]float64, train.Dim)
	}
	for i := 0; i < train.Len(); i++ {
		for d, f := range row(train, i) {
			centroids[train.Label(i)][d] += f
		}
		counts[train.Label(i)]++
	}
	for c := range centroids {
		for d := range centroids[c] {
			centroids[c][d] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		best, bestDist := -1, 0.0
		for c := range centroids {
			dist := 0.0
			for d, f := range row(test, i) {
				diff := f - centroids[c][d]
				dist += diff * diff
			}
			if best == -1 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == test.Label(i) {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy = %.2f; synthetic MNIST too hard", acc)
	}
}

// digest hashes a split as (label, Float64bits of every dense feature) in
// sample order — the bytes the pre-flat []Sample corpus held.
func digest(s *Set) string {
	h := sha256.New()
	var b [8]byte
	f := make([]float64, s.Dim)
	for i := 0; i < s.Len(); i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(s.Label(i)))
		h.Write(b[:])
		s.Row(i, f)
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestsPinned holds every split to the digest recorded from
// the per-row []Sample storage this package had before the flat Set, at the
// trainer's DataSeed and default sizes: generator RNG order, the
// post-generation shuffle and the CSR round trip all reproduce it bit for
// bit. It also pins the layout each split's measured density selects.
func TestGenerateDigestsPinned(t *testing.T) {
	want := map[string]struct {
		sha    string
		sparse bool
	}{
		"mnist/train":   {"72dcc21501f9529c143ba48ef44d4b9b72f586c9e899d7e172853a44afd827ad", false},
		"mnist/test":    {"2f73380d948f0ac5624c7dee12dc18c857b00efb43301d298e816b3e55e8d3ba", false},
		"fashion/train": {"56bbcfbf4b93d35be17078657b67b5c10f50dd8c5357e486baf075207531c595", false},
		"fashion/test":  {"6885e2b03aa24ef36885c6aaf38b078334ad087137152d4b4d24f05a9e1e469e", false},
		"news20/train":  {"730c26e33942b796ec35cf73945978dd4ef0cb9884307e268b8dbd8937c4226c", true},
		"news20/test":   {"363ccdd53caaf6b3acdb243b3df6b2f367fafa32ee7b2c472ed3b27ba36065b7", true},
		"rodinia/train": {"cdff787bc7908735345fc79f69f857d10c448161e5e56d5e053aeeb680a218af", false},
		"rodinia/test":  {"9175fe002304ac11f12c5eeb10294d4a6ad4a4bc29ccfb9db393a7788449d3ea", false},
	}
	for _, ds := range []workload.Dataset{workload.MNIST, workload.FashionMNIST, workload.News20, workload.Rodinia} {
		train, test, err := Generate(workload.Workload{Dataset: ds}, 0x0da7a5eed, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Set{train, test} {
			w, ok := want[s.Name]
			if !ok {
				t.Fatalf("no pinned digest for %s", s.Name)
			}
			if got := digest(s); got != w.sha {
				t.Errorf("%s: digest %s, want %s", s.Name, got, w.sha)
			}
			if sparse := s.dense == nil; sparse != w.sparse {
				t.Errorf("%s: sparse layout = %v, want %v", s.Name, sparse, w.sparse)
			}
			if dense := int64(8 * s.Len() * s.Dim); s.Bytes() > dense+int64(4*s.Len())+256 {
				t.Errorf("%s: %d bytes stored for a %d-byte dense block", s.Name, s.Bytes(), dense)
			}
		}
	}
}

// TestSetRowsExpandBitExactly builds sets by hand around every value the
// sparse layout could mishandle — only a +0 may be dropped — and checks
// that both layouts give back the exact bits they were handed.
func TestSetRowsExpandBitExactly(t *testing.T) {
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	full := []float64{1, -2, 3.5, negZero, nan, inf, -inf, math.SmallestNonzeroFloat64}
	cases := []struct {
		name   string
		rows   [][]float64
		sparse bool
	}{
		{"sparse specials", [][]float64{
			{0, negZero, 0, 0, 0, 0, 0, 0},
			{0, 0, nan, 0, 0, 0, 0, 0},
			{0, 0, 0, inf, 0, 0, 0, -inf},
			{0, 0, 0, 0, 0, 0, 0, 0}, // all-zero row
			{0, 0, 0, 0, 0, 0, 0, 0},
			full,
			{0, 0, 0, 0, 0, 0, 0, 0},
			{7, 0, 0, 0, 0, 0, 0, 0},
		}, true},
		{"dense with zeros", [][]float64{
			full,
			{0, negZero, nan, inf, -inf, 1, 2, 3},
			{0, 0, 0, 0, 0, 0, 0, 0},
			full,
			full,
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dim := len(tc.rows[0])
			labels := make([]int32, len(tc.rows))
			var flat []float64
			for i, r := range tc.rows {
				labels[i] = int32(i % 3)
				flat = append(flat, r...)
			}
			s, err := newSet(tc.name, dim, 3, labels, flat)
			if err != nil {
				t.Fatal(err)
			}
			if sparse := s.dense == nil; sparse != tc.sparse {
				t.Fatalf("sparse layout = %v, want %v", sparse, tc.sparse)
			}
			if s.Len() != len(tc.rows) {
				t.Fatalf("Len = %d, want %d", s.Len(), len(tc.rows))
			}
			got := make([]float64, dim)
			for i, want := range tc.rows {
				for d := range got {
					got[d] = 99 // Row must overwrite every element
				}
				s.Row(i, got)
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Errorf("row %d col %d: bits %#x, want %#x", i, d, math.Float64bits(got[d]), math.Float64bits(want[d]))
					}
				}
				if s.Label(i) != i%3 {
					t.Errorf("row %d: label %d, want %d", i, s.Label(i), i%3)
				}
			}
		})
	}
}

// TestNewSetRejectsBadShapes: a row wider than a uint16 column index is
// refused, not truncated, and the feature block must match rows × dim.
func TestNewSetRejectsBadShapes(t *testing.T) {
	wide := math.MaxUint16 + 1
	if _, err := newSet("wide", wide, 2, make([]int32, 1), make([]float64, wide)); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Fatalf("dim %d accepted (err = %v)", wide, err)
	}
	if s, err := newSet("widest", math.MaxUint16, 2, make([]int32, 1), make([]float64, math.MaxUint16)); err != nil || s.Len() != 1 {
		t.Fatalf("dim %d refused: %v", math.MaxUint16, err)
	}
	if _, err := newSet("zero", 0, 2, nil, nil); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := newSet("ragged", 4, 2, make([]int32, 2), make([]float64, 7)); err == nil {
		t.Fatal("7 features for 2 rows of 4 accepted")
	}
}

// batches materialises EachBatch's iteration as a list of index slices.
func batches(n, b int, perm []int) [][]int {
	var out [][]int
	EachBatch(n, b, perm, func(batch []int) error {
		out = append(out, batch)
		return nil
	})
	return out
}

func TestBatches(t *testing.T) {
	b := batches(10, 4, nil)
	if len(b) != 3 || len(b[0]) != 4 || len(b[2]) != 2 {
		t.Fatalf("Batches(10,4) = %v", b)
	}
	seen := make(map[int]bool)
	for _, batch := range b {
		for _, i := range batch {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices, want 10", len(seen))
	}
	if batches(0, 4, nil) != nil || batches(4, 0, nil) != nil {
		t.Fatal("degenerate batches should be nil")
	}
}

func TestBatchesWithPermutation(t *testing.T) {
	r := xrand.New(5)
	perm := r.Perm(20)
	b := batches(20, 6, perm)
	flat := make([]int, 0, 20)
	for _, batch := range b {
		flat = append(flat, batch...)
	}
	for i, v := range flat {
		if v != perm[i] {
			t.Fatalf("batches do not follow permutation at %d", i)
		}
	}
}

// Property: batches always partition [0,n) exactly.
func TestQuickBatchesPartition(t *testing.T) {
	f := func(nRaw, bRaw uint8) bool {
		n, b := int(nRaw)%200+1, int(bRaw)%32+1
		seen := make(map[int]bool, n)
		for _, batch := range batches(n, b, nil) {
			if len(batch) == 0 || len(batch) > b {
				return false
			}
			for _, i := range batch {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
