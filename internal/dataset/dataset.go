// Package dataset synthesises the evaluation corpora of Table 3.
//
// The paper trains on MNIST, Fashion-MNIST, News20 and Rodinia inputs. Those
// corpora are not shippable inside an offline, dependency-free module, so
// this package generates class-structured synthetic stand-ins with the same
// label cardinality and qualitative difficulty ordering:
//
//   - MNIST-style: 10 well-separated Gaussian digit prototypes over a
//     pixel-like feature grid (easiest).
//   - Fashion-MNIST-style: 10 classes with more inter-class overlap
//     (slightly harder, as in the real datasets).
//   - News20-style: 20 topics as sparse bag-of-words count vectors
//     (hardest; text models need capacity to separate them).
//   - Rodinia-style: numeric kernel states labelled by regime (small,
//     4-class task for the Type-III sprinting workloads).
//
// Everything a tuner observes — accuracy trajectories responding to batch
// size, learning rate, dropout, capacity — emerges from genuinely training
// on these sets. Generation is deterministic per (workload, seed).
package dataset

import (
	"fmt"
	"math"
	"unsafe"

	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Set is one immutable dataset split in flat storage: every label in one
// slice and every feature in one backing array, laid out in whichever of
// two forms is smaller for the data the split actually holds.
//
//   - Row-major dense (dense != nil): row i is dense[i*Dim : (i+1)*Dim].
//   - CSR (dense == nil): row i's stored values are vals[k] at column
//     cols[k] for k in [rowStart[i], rowStart[i+1]); every other element
//     is +0.
//
// Only a +0 (all bits zero) is ever left out, so Row reproduces the
// generated floats bit for bit — -0, NaN and the infinities are values.
// The layout is chosen by newSet from the data alone, never from the
// dataset's name. Name, Dim and NumClasses are read-only after Generate.
type Set struct {
	Name       string
	Dim        int
	NumClasses int

	labels   []int32
	dense    []float64
	vals     []float64
	cols     []uint16
	rowStart []uint32
}

// maxDim is the widest row a split may have: CSR column indices are uint16.
const maxDim = math.MaxUint16

// newSet freezes n = len(labels) rows of dim row-major features into a Set,
// taking ownership of both slices. It counts the elements that are not +0
// and stores the split as CSR when that is smaller than the dense block it
// was handed; the dense block is otherwise kept as is.
func newSet(name string, dim, classes int, labels []int32, features []float64) (*Set, error) {
	if dim <= 0 || dim > maxDim {
		return nil, fmt.Errorf("dataset: %s: dim %d outside [1, %d]", name, dim, maxDim)
	}
	if len(features) != len(labels)*dim {
		return nil, fmt.Errorf("dataset: %s: %d features for %d rows of %d", name, len(features), len(labels), dim)
	}
	s := &Set{Name: name, Dim: dim, NumClasses: classes, labels: labels}
	nnz := 0
	for _, f := range features {
		if math.Float64bits(f) != 0 {
			nnz++
		}
	}
	// rowStart holds uint32 offsets into vals, so a split with more stored
	// values than that stays dense whatever its density.
	const valBytes, colBytes, startBytes = 8, 2, 4
	if uint64(nnz) > math.MaxUint32 || nnz*(valBytes+colBytes)+(len(labels)+1)*startBytes >= len(features)*valBytes {
		s.dense = features
		return s, nil
	}
	s.vals = make([]float64, 0, nnz)
	s.cols = make([]uint16, 0, nnz)
	s.rowStart = make([]uint32, len(labels)+1)
	for i := range labels {
		for c, f := range features[i*dim : (i+1)*dim] {
			if math.Float64bits(f) != 0 {
				s.vals = append(s.vals, f)
				s.cols = append(s.cols, uint16(c))
			}
		}
		s.rowStart[i+1] = uint32(len(s.vals))
	}
	return s, nil
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.labels) }

// Label returns sample i's class.
func (s *Set) Label(i int) int { return int(s.labels[i]) }

// Row expands sample i's features into dst, which must be Dim long.
func (s *Set) Row(i int, dst []float64) {
	if s.dense != nil {
		copy(dst, s.dense[i*s.Dim:(i+1)*s.Dim])
		return
	}
	clear(dst)
	for k := s.rowStart[i]; k < s.rowStart[i+1]; k++ {
		dst[s.cols[k]] = s.vals[k]
	}
}

// Bytes returns the heap the split occupies, derived from the parts it
// stores: the struct, the name and the five backing arrays.
func (s *Set) Bytes() int64 {
	return int64(unsafe.Sizeof(*s)) + int64(len(s.Name)) +
		4*int64(len(s.labels)+len(s.rowStart)) +
		8*int64(len(s.dense)+len(s.vals)) +
		2*int64(len(s.cols))
}

// Config controls synthetic corpus size. The defaults are deliberately much
// smaller than Table 3's file counts: learning dynamics need only enough
// data to show convergence trends, while simulated epoch *time* is driven by
// the full Table 3 sizes via workload.Traits.
type Config struct {
	TrainSize int
	TestSize  int
}

// DefaultConfig returns the standard scaled-down corpus size.
func DefaultConfig() Config {
	return Config{TrainSize: 1536, TestSize: 512}
}

// Generate synthesises the train/test splits for the given workload's
// dataset. The same (dataset, seed, cfg) always yields identical splits,
// regardless of the model half of the workload.
func Generate(w workload.Workload, seed uint64, cfg Config) (train, test *Set, err error) {
	if cfg.TrainSize <= 0 || cfg.TestSize <= 0 {
		return nil, nil, fmt.Errorf("dataset: non-positive split sizes %+v", cfg)
	}
	// Seed depends only on the dataset so Type-II workloads (two models,
	// one dataset) genuinely share their corpus, as in the paper.
	r := xrand.New(seed ^ (uint64(w.Dataset) * 0x9e3779b97f4a7c15))
	var g generator
	switch w.Dataset {
	case workload.MNIST:
		g = newPrototypeGenerator(r, 10, 64, 2.4, 0.55)
	case workload.FashionMNIST:
		g = newPrototypeGenerator(r, 10, 64, 1.9, 0.70)
	case workload.News20:
		g = newBagOfWordsGenerator(r, 20, 128)
	case workload.Rodinia:
		g = newKernelStateGenerator(r, 4, 32)
	default:
		return nil, nil, fmt.Errorf("dataset: unknown dataset %v", w.Dataset)
	}
	if train, err = split(g, r, w.Dataset.String()+"/train", cfg.TrainSize); err != nil {
		return nil, nil, err
	}
	if test, err = split(g, r, w.Dataset.String()+"/test", cfg.TestSize); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// generator produces labelled samples from a fixed class structure.
type generator interface {
	// shape returns the feature width and the number of classes.
	shape() (dim, classes int)
	// fill draws one sample of class label from r into f, which arrives
	// zeroed.
	fill(r *xrand.Source, f []float64, label int)
}

// split draws n class-balanced samples from g into one row-major block,
// shuffles them with r — swapping whole rows, so the draw sequence and the
// resulting order are those of shuffling a slice of samples — and freezes
// the block into a Set.
func split(g generator, r *xrand.Source, name string, n int) (*Set, error) {
	dim, classes := g.shape()
	labels := make([]int32, n)
	features := make([]float64, n*dim)
	for i := range labels {
		labels[i] = int32(i % classes) // balanced classes
		g.fill(r, features[i*dim:(i+1)*dim], i%classes)
	}
	r.Shuffle(n, func(i, j int) {
		labels[i], labels[j] = labels[j], labels[i]
		a, b := features[i*dim:(i+1)*dim], features[j*dim:(j+1)*dim]
		for d := range a {
			a[d], b[d] = b[d], a[d]
		}
	})
	return newSet(name, dim, classes, labels, features)
}

// prototypeGenerator draws samples as class prototype + isotropic noise:
// the image-classification stand-in. separation controls inter-prototype
// distance; noise controls intra-class spread. Lower separation/noise
// ratios make the task harder.
type prototypeGenerator struct {
	classes    int
	dim        int
	noise      float64
	prototypes [][]float64
}

func newPrototypeGenerator(r *xrand.Source, classes, dim int, separation, noise float64) *prototypeGenerator {
	g := &prototypeGenerator{classes: classes, dim: dim, noise: noise}
	g.prototypes = make([][]float64, classes)
	for c := range g.prototypes {
		p := make([]float64, dim)
		for i := range p {
			p[i] = r.NormFloat64() * separation / math.Sqrt(float64(dim))
		}
		g.prototypes[c] = p
	}
	return g
}

func (g *prototypeGenerator) shape() (dim, classes int) { return g.dim, g.classes }

func (g *prototypeGenerator) fill(r *xrand.Source, f []float64, label int) {
	proto := g.prototypes[label]
	for d := range f {
		f[d] = proto[d] + float64(r.NormFloat64()*g.noise)
	}
}

// bagOfWordsGenerator models News20-style text: each topic has a Zipf-ish
// vocabulary preference, documents are sparse non-negative count vectors
// (log1p-scaled). Topics share common stop-words, creating realistic
// overlap that rewards model capacity (embedding width).
type bagOfWordsGenerator struct {
	classes  int
	vocab    int
	topicPri [][]float64
}

func newBagOfWordsGenerator(r *xrand.Source, classes, vocab int) *bagOfWordsGenerator {
	g := &bagOfWordsGenerator{classes: classes, vocab: vocab}
	g.topicPri = make([][]float64, classes)
	// First tenth of the vocabulary is shared "stop words".
	stop := vocab / 10
	for c := range g.topicPri {
		p := make([]float64, vocab)
		for v := 0; v < stop; v++ {
			p[v] = 1.0
		}
		// Each topic strongly prefers an exclusive band plus random extras.
		bandWidth := (vocab - stop) / classes
		start := stop + c*bandWidth
		for v := start; v < start+bandWidth && v < vocab; v++ {
			p[v] = 3.0
		}
		for k := 0; k < vocab/8; k++ {
			p[stop+r.Intn(vocab-stop)] += 0.8
		}
		g.topicPri[c] = p
	}
	return g
}

func (g *bagOfWordsGenerator) shape() (dim, classes int) { return g.vocab, g.classes }

func (g *bagOfWordsGenerator) fill(r *xrand.Source, f []float64, label int) {
	pri := g.topicPri[label]
	// Draw ~vocab/4 word occurrences weighted by topic priority.
	draws := g.vocab / 4
	for d := 0; d < draws; d++ {
		v := r.Intn(g.vocab)
		if r.Float64() < pri[v]/3.0 {
			f[v]++
		}
	}
	for v := range f {
		f[v] = math.Log1p(f[v])
	}
}

// kernelStateGenerator models the Rodinia Type-III tasks: low-dimensional
// numeric states (grid residuals, frontier sizes, centroid spreads)
// labelled by operating regime. Moderate difficulty, tiny dimensionality.
type kernelStateGenerator struct {
	classes int
	dim     int
	centers [][]float64
}

func newKernelStateGenerator(r *xrand.Source, classes, dim int) *kernelStateGenerator {
	g := &kernelStateGenerator{classes: classes, dim: dim}
	g.centers = make([][]float64, classes)
	for c := range g.centers {
		center := make([]float64, dim)
		for i := range center {
			center[i] = float64(float64(c)*0.9) + float64(r.NormFloat64()*0.4)
		}
		g.centers[c] = center
	}
	return g
}

func (g *kernelStateGenerator) shape() (dim, classes int) { return g.dim, g.classes }

func (g *kernelStateGenerator) fill(r *xrand.Source, f []float64, label int) {
	for d := range f {
		f[d] = g.centers[label][d] + float64(r.NormFloat64()*0.6)
	}
}

// EachBatch invokes fn on each contiguous minibatch of perm — indices
// [0,n) permuted by perm (nil for identity order), split into batches of
// size b with the final batch possibly short. It is the canonical epoch
// iteration used by the trainer: one forward+backward per batch, as in
// synchronous minibatch SGD. Batches are subslices of perm, so with a
// non-nil perm the iteration allocates nothing; fn must not retain or
// mutate them. Iteration stops at the first error, which is returned.
func EachBatch(n, b int, perm []int, fn func(batch []int) error) error {
	if b <= 0 || n <= 0 {
		return nil
	}
	idx := identity(n, perm)
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		if err := fn(idx[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// identity returns perm, or a fresh identity permutation of [0,n) when
// perm is nil.
func identity(n int, perm []int) []int {
	if perm != nil {
		return perm
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
