// Package costmodel predicts the duration of one training epoch as a
// function of the workload, the hyperparameters and the system parameters.
//
// It replaces the wall clock of the paper's physical cluster with the
// mechanism §3.2 describes for synchronous minibatch SGD (as implemented by
// BigDL): every iteration computes gradients on a mini-batch divided across
// N cores and then performs a single synchronised weight update. Three terms
// dominate:
//
//	compute  — total per-sample work, shrunk sublinearly by core count
//	           (Amdahl) and improved slightly by larger batches
//	           (vectorisation efficiency);
//	sync     — a per-iteration barrier/aggregation cost that GROWS with
//	           core count and with model size, and is amortised by larger
//	           batches (fewer iterations per epoch);
//	memory   — a spill penalty when the allocated memory is below the
//	           trial's working set.
//
// The balance of the first two terms is what yields the paper's Figure 3
// shapes: adding cores speeds up batch-1024 epochs but slows down batch-64
// epochs, because small batches mean many synchronisations whose cost rises
// with parallelism.
package costmodel

import (
	"fmt"
	"math"

	"pipetune/internal/params"
	"pipetune/internal/workload"
)

// Model holds the calibration constants. Use Default for the constants
// calibrated against the paper's Figure 3 (see package tests).
type Model struct {
	// ParallelFraction is the Amdahl parallel fraction p of the compute
	// term: speedup(n) = 1 / ((1-p) + p/n).
	ParallelFraction float64

	// SyncScale scales the per-epoch synchronisation cost (cost-model
	// units, same scale as one sample of unit-FLOP work).
	SyncScale float64

	// SyncGrowthCoeff/SyncGrowthExp shape the core-count growth of each
	// synchronisation: g(n) = 1 + coeff*(n-1)^exp.
	SyncGrowthCoeff float64
	SyncGrowthExp   float64

	// SyncAmortExp is the exponent applied to the iteration count when
	// accumulating sync cost; values below 1 model partial overlap of
	// consecutive barriers (Drizzle-style scheduling, §3.2).
	SyncAmortExp float64

	// VecEffHalfBatch is the batch size at which vectorisation efficiency
	// reaches 50%: eff(b) = b / (b + VecEffHalfBatch).
	VecEffHalfBatch float64

	// SpillPenalty is the maximum slowdown multiplier applied when memory
	// is insufficient (linear in the shortfall fraction).
	SpillPenalty float64
}

// Default returns the calibrated constants. The derivation pins batch-64
// epochs to slow down ~1.4x when going from 1 to 8 cores while batch-1024
// epochs speed up ~2x, matching Figure 3b's envelope.
func Default() Model {
	return Model{
		ParallelFraction: 0.93,
		SyncScale:        368.0,
		SyncGrowthCoeff:  1.3,
		SyncGrowthExp:    0.53,
		SyncAmortExp:     0.6,
		VecEffHalfBatch:  24,
		SpillPenalty:     1.5,
	}
}

// Speedup returns the Amdahl compute speedup for n cores.
func (m Model) Speedup(n int) float64 {
	p := m.ParallelFraction
	return 1 / ((1 - p) + p/float64(n))
}

// syncGrowth returns the per-synchronisation cost multiplier at n cores.
func (m Model) syncGrowth(n int) float64 {
	return 1 + m.SyncGrowthCoeff*math.Pow(float64(n-1), m.SyncGrowthExp)
}

// vecEff returns the vectorisation efficiency of batch size b in (0,1).
func (m Model) vecEff(b int) float64 {
	return float64(b) / (float64(b) + m.VecEffHalfBatch)
}

// SysKey returns what the simulated side of a trial reads of h: h with
// Epochs, LearningRate and Dropout zeroed. BatchSize and EmbeddingDim stay —
// capacityFactor, vecEff, the iteration count and MemoryRequiredGB read
// them (the last reads EmbeddingDim on every workload), and so do the PMU
// profile's locality and spill terms. Two trials of one workload whose
// keys are equal cost the same per epoch on every system configuration;
// the energy model reads only the configuration and the breakdown. The key
// names a cost class and is not itself a runnable Hyper (Validate rejects
// its zero learning rate).
func SysKey(h params.Hyper) params.Hyper {
	h.Epochs, h.LearningRate, h.Dropout = 0, 0, 0
	return h
}

// capacityFactor scales per-sample work with the embedding width for
// models that use it (EmbedSensitivity > 0).
func capacityFactor(tr workload.Traits, h params.Hyper) float64 {
	return 1 + tr.EmbedSensitivity*(float64(h.EmbeddingDim)-100)/200
}

// MemoryRequiredGB returns the trial's working set under h: the base
// working set grows moderately with batch size and embedding width.
func MemoryRequiredGB(tr workload.Traits, h params.Hyper) float64 {
	return tr.WorkingSetGB * (0.7 +
		0.2*float64(h.BatchSize)/1024 +
		0.1*float64(h.EmbeddingDim)/300)
}

// Breakdown reports the three components of one epoch in cost-model units,
// before normalisation to seconds. Exposed for tests, the energy model
// (which needs the compute/sync split to estimate power draw) and the
// ablation benchmarks.
type Breakdown struct {
	ComputeUnits float64 // parallelised per-sample work
	SyncUnits    float64 // synchronisation cost across the epoch
	MemPenalty   float64 // multiplier >= 1
}

// Total returns the penalised unit total.
func (b Breakdown) Total() float64 {
	return (b.ComputeUnits + b.SyncUnits) * b.MemPenalty
}

// ComputeFraction returns the share of epoch time spent computing (as
// opposed to synchronising); the energy model draws more power during
// compute-heavy phases.
func (b Breakdown) ComputeFraction() float64 {
	t := b.ComputeUnits + b.SyncUnits
	if t == 0 {
		return 0
	}
	return b.ComputeUnits / t
}

// EpochBreakdown computes the component split for one epoch.
func (m Model) EpochBreakdown(tr workload.Traits, h params.Hyper, sys params.SysConfig) (Breakdown, error) {
	if err := h.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("costmodel: %w", err)
	}
	if err := sys.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("costmodel: %w", err)
	}
	if tr.TrainFiles <= 0 || tr.FLOPsPerSample <= 0 {
		return Breakdown{}, fmt.Errorf("costmodel: invalid traits %+v", tr)
	}
	n := float64(tr.TrainFiles)
	cap := capacityFactor(tr, h)

	compute := n * tr.FLOPsPerSample * cap / (m.Speedup(sys.Cores) * m.vecEff(h.BatchSize))

	iters := math.Ceil(n / float64(h.BatchSize))
	paramFactor := math.Sqrt(tr.ParamCountK / 60)
	sync := m.SyncScale * math.Pow(iters, m.SyncAmortExp) * paramFactor *
		math.Sqrt(cap) * m.syncGrowth(sys.Cores)

	penalty := 1.0
	required := MemoryRequiredGB(tr, h)
	if float64(sys.MemoryGB) < required {
		shortfall := (required - float64(sys.MemoryGB)) / required
		penalty = 1 + m.SpillPenalty*shortfall
	}
	return Breakdown{ComputeUnits: compute, SyncUnits: sync, MemPenalty: penalty}, nil
}

// EpochDuration returns the simulated duration in seconds of one epoch of
// the workload under (h, sys). Durations are normalised so that the default
// hyper/system configuration reproduces the workload's calibrated
// EpochSeconds anchor.
func (m Model) EpochDuration(tr workload.Traits, h params.Hyper, sys params.SysConfig) (float64, error) {
	bd, err := m.EpochBreakdown(tr, h, sys)
	if err != nil {
		return 0, err
	}
	ref, err := m.EpochBreakdown(tr, params.DefaultHyper(), params.DefaultSysConfig())
	if err != nil {
		return 0, err
	}
	return tr.EpochSeconds * bd.Total() / ref.Total(), nil
}

// TrialDuration returns the simulated duration of a full trial: h.Epochs
// epochs plus a fixed initialisation phase (dataset load + model build;
// Figure 2 shows the distinct "Init." phase before epoch 1).
func (m Model) TrialDuration(tr workload.Traits, h params.Hyper, sys params.SysConfig) (float64, error) {
	epoch, err := m.EpochDuration(tr, h, sys)
	if err != nil {
		return 0, err
	}
	return m.InitDuration(tr) + float64(h.Epochs)*epoch, nil
}

// InitDuration returns the simulated initialisation-phase duration.
func (m Model) InitDuration(tr workload.Traits) float64 {
	// Loading scales with the corpus size; floor keeps it visible for the
	// tiny Type-III workloads.
	d := 0.5 * float64(tr.DatasizeMB)
	if d < 5 {
		d = 5
	}
	return d
}

// WithLoad applies a contention multiplier to a duration: load is the
// number of jobs time-sharing the same cores (Figure 5's background-job
// setup). load <= 1 leaves the duration unchanged.
func WithLoad(duration, load float64) float64 {
	if load <= 1 {
		return duration
	}
	// Time-sharing plus a 5% context-switching tax per extra job.
	return duration * load * (1 + 0.05*(load-1))
}
