// Package params defines the two parameter families the paper tunes —
// hyperparameters (§7.1.3) and system parameters (§7.1.4) — plus the
// generic discrete search-space machinery shared by every search algorithm.
//
// An Assignment is a flat name→value map so that search algorithms stay
// agnostic of which family a dimension belongs to; Tune V2 ("system as
// hyperparameters", §4) is expressed simply by concatenating the two spaces.
package params

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pipetune/internal/xrand"
)

// Canonical dimension names. Search spaces and assignments use these keys.
const (
	KeyBatchSize    = "batch_size"
	KeyLearningRate = "learning_rate"
	KeyDropout      = "dropout"
	KeyEmbeddingDim = "embedding_dim"
	KeyEpochs       = "epochs"
	KeyCores        = "cores"
	KeyMemoryGB     = "memory_gb"
)

// Hyper holds the five hyperparameters the paper tunes (§7.1.3), with the
// paper's recommended ranges noted per field.
type Hyper struct {
	BatchSize    int     `json:"batchSize"`    // [32, 1024]
	LearningRate float64 `json:"learningRate"` // [0.001, 0.1]
	Dropout      float64 `json:"dropout"`      // [0.0, 0.5]
	EmbeddingDim int     `json:"embeddingDim"` // [50, 300]
	Epochs       int     `json:"epochs"`       // [10, 100] (scaled down by default here)
}

// DefaultHyper returns the baseline configuration used throughout §3
// (batch size 32 is the explicit Figure 3a baseline).
func DefaultHyper() Hyper {
	return Hyper{
		BatchSize:    32,
		LearningRate: 0.01,
		Dropout:      0.25,
		EmbeddingDim: 100,
		Epochs:       10,
	}
}

// Validate reports whether the hyperparameters are inside the paper's
// documented ranges (with Epochs allowed down to 1 so short simulated
// trials remain legal).
func (h Hyper) Validate() error {
	switch {
	case h.BatchSize < 1 || h.BatchSize > 4096:
		return fmt.Errorf("params: batch size %d out of range", h.BatchSize)
	case h.LearningRate <= 0 || h.LearningRate > 1:
		return fmt.Errorf("params: learning rate %g out of range", h.LearningRate)
	case h.Dropout < 0 || h.Dropout > 0.9:
		return fmt.Errorf("params: dropout %g out of range", h.Dropout)
	case h.EmbeddingDim < 1 || h.EmbeddingDim > 1024:
		return fmt.Errorf("params: embedding dim %d out of range", h.EmbeddingDim)
	case h.Epochs < 1 || h.Epochs > 1000:
		return fmt.Errorf("params: epochs %d out of range", h.Epochs)
	}
	return nil
}

// String formats the hyperparameters compactly for logs and trial labels.
func (h Hyper) String() string {
	return fmt.Sprintf("bs=%d lr=%g do=%g emb=%d ep=%d",
		h.BatchSize, h.LearningRate, h.Dropout, h.EmbeddingDim, h.Epochs)
}

// SysConfig holds the system parameters tuned by PipeTune (§7.1.4): the
// resources allocated to one training trial.
type SysConfig struct {
	Cores    int `json:"cores"`    // valid cluster range: [4, 16]
	MemoryGB int `json:"memoryGB"` // valid cluster range: [4, 32]
}

// DefaultSysConfig is the fixed configuration Tune V1 runs every trial
// with: a middle-of-the-road slice of one node.
func DefaultSysConfig() SysConfig {
	return SysConfig{Cores: 8, MemoryGB: 8}
}

// Validate reports whether the configuration is inside the evaluation
// cluster's valid ranges (§7.1.4), extended down to 1 core so the §3
// sequential baselines can be expressed.
func (s SysConfig) Validate() error {
	if s.Cores < 1 || s.Cores > 64 {
		return fmt.Errorf("params: cores %d out of range", s.Cores)
	}
	if s.MemoryGB < 1 || s.MemoryGB > 256 {
		return fmt.Errorf("params: memory %d GB out of range", s.MemoryGB)
	}
	return nil
}

// String formats the configuration compactly.
func (s SysConfig) String() string {
	return fmt.Sprintf("%dc/%dGB", s.Cores, s.MemoryGB)
}

// Assignment maps dimension names to chosen values. Integer-valued
// dimensions are stored as float64 and rounded on extraction.
type Assignment map[string]float64

// Clone returns an independent copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Key returns a canonical, order-independent string encoding, usable as a
// map key for deduplication and caching.
func (a Assignment) Key() string {
	names := make([]string, 0, len(a))
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(a[k], 'g', -1, 64))
	}
	return b.String()
}

// ApplyHyper overlays any hyperparameter dimensions present in a onto base
// and returns the result.
func (a Assignment) ApplyHyper(base Hyper) Hyper {
	if v, ok := a[KeyBatchSize]; ok {
		base.BatchSize = int(v + 0.5)
	}
	if v, ok := a[KeyLearningRate]; ok {
		base.LearningRate = v
	}
	if v, ok := a[KeyDropout]; ok {
		base.Dropout = v
	}
	if v, ok := a[KeyEmbeddingDim]; ok {
		base.EmbeddingDim = int(v + 0.5)
	}
	if v, ok := a[KeyEpochs]; ok {
		base.Epochs = int(v + 0.5)
	}
	return base
}

// ApplySys overlays any system dimensions present in a onto base.
func (a Assignment) ApplySys(base SysConfig) SysConfig {
	if v, ok := a[KeyCores]; ok {
		base.Cores = int(v + 0.5)
	}
	if v, ok := a[KeyMemoryGB]; ok {
		base.MemoryGB = int(v + 0.5)
	}
	return base
}

// Dimension is one discrete tunable axis.
type Dimension struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Space is an ordered list of dimensions. Order determines grid enumeration
// order and must therefore be stable.
type Space []Dimension

// Size returns the number of points in the full grid.
func (s Space) Size() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= len(d.Values)
	}
	return n
}

// Validate checks that every dimension has a name and at least one value,
// and that no name repeats.
func (s Space) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, d := range s {
		if d.Name == "" {
			return fmt.Errorf("params: dimension with empty name")
		}
		if len(d.Values) == 0 {
			return fmt.Errorf("params: dimension %q has no values", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("params: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// At returns the i-th grid point in mixed-radix order (first dimension
// varies slowest). It panics if i is out of range — callers iterate over
// [0, Size()).
func (s Space) At(i int) Assignment {
	if i < 0 || i >= s.Size() {
		panic(fmt.Sprintf("params: grid index %d out of range [0,%d)", i, s.Size()))
	}
	a := make(Assignment, len(s))
	for d := len(s) - 1; d >= 0; d-- {
		n := len(s[d].Values)
		a[s[d].Name] = s[d].Values[i%n]
		i /= n
	}
	return a
}

// Sample draws one uniform random point.
func (s Space) Sample(r *xrand.Source) Assignment {
	a := make(Assignment, len(s))
	for _, d := range s {
		a[d.Name] = d.Values[r.Intn(len(d.Values))]
	}
	return a
}

// Concat returns a new space with the dimensions of both inputs; this is
// how Tune V2 folds system parameters into the hyperparameter search.
func Concat(a, b Space) Space {
	out := make(Space, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// PaperHyperSpace returns the discrete hyperparameter grid used by the
// evaluation: the paper's five dimensions with three representative values
// each (Figure 1 configures "up to 3 different values" per parameter).
// Epoch counts are scaled down (paper range [10,100]) to keep simulated
// trials short; relative orderings are preserved.
func PaperHyperSpace() Space {
	return Space{
		{Name: KeyBatchSize, Values: []float64{32, 256, 1024}},
		{Name: KeyLearningRate, Values: []float64{0.001, 0.01, 0.1}},
		{Name: KeyDropout, Values: []float64{0.0, 0.25, 0.5}},
		{Name: KeyEmbeddingDim, Values: []float64{50, 100, 300}},
		{Name: KeyEpochs, Values: []float64{4, 8, 12}},
	}
}

// PaperSystemSpace returns the system-parameter grid from §7.1.4:
// cores ∈ [4,16] and memory ∈ [4,32] GB at power-of-two steps, matching the
// 48-configuration profiling campaign of §7.2 (4 memory × 3 core levels ×
// 4 batch levels there; here the resource axes only).
func PaperSystemSpace() Space {
	return Space{
		{Name: KeyCores, Values: []float64{4, 8, 16}},
		{Name: KeyMemoryGB, Values: []float64{4, 8, 16, 32}},
	}
}
