// Package pipetune is a from-scratch Go implementation of PipeTune
// ("PipeTune: Pipeline Parallelism of Hyper and System Parameters Tuning
// for Deep Learning Clusters", Rocha et al., ACM/IFIP Middleware 2020).
//
// PipeTune is a middleware between a hyperparameter-tuning library and a
// training framework: while the usual search explores hyperparameters
// across trials, PipeTune tunes *system* parameters (cores, memory) inside
// each trial at epoch granularity — profiling the first epoch with hardware
// performance counters, consulting a ground-truth database of previously
// seen workloads (a nearest-neighbour vote over one list), and probing
// configurations epoch-by-epoch on a miss. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-versus-measured comparison.
//
// The facade wires the substrates together:
//
//	sys, err := pipetune.New(pipetune.WithSeed(42))
//	spec := sys.JobSpec(pipetune.Workload{Model: pipetune.LeNet5, Dataset: pipetune.MNIST})
//	res, err := sys.RunPipeTune(spec)
//
// Baselines (Tune V1/V2 of the paper's §4) run through the same facade via
// RunBaseline. Everything is deterministic under a fixed seed and runs on
// simulated time: trials flow through an event-driven discrete-event
// scheduler (internal/sched) that places them first come, first served,
// the paper's order. See DESIGN.md for the scheduler architecture and
// EXPERIMENTS.md for the paper-versus-measured comparison.
package pipetune

import (
	"context"
	"errors"

	"pipetune/internal/admission"
	"pipetune/internal/cluster"
	"pipetune/internal/core"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// Re-exported workload vocabulary (Table 3).
type (
	// Workload pairs a model with a dataset.
	Workload = workload.Workload
	// Model is a neural-network architecture (or Rodinia kernel).
	Model = workload.Model
	// Dataset is an input corpus.
	Dataset = workload.Dataset
	// WorkloadType is the paper's Type-I/II/III taxonomy.
	WorkloadType = workload.Type
)

// Models.
const (
	LeNet5   = workload.LeNet5
	CNN      = workload.CNN
	LSTM     = workload.LSTM
	Jacobi   = workload.Jacobi
	SPKMeans = workload.SPKMeans
	BFS      = workload.BFS
)

// Datasets.
const (
	MNIST        = workload.MNIST
	FashionMNIST = workload.FashionMNIST
	News20       = workload.News20
	Rodinia      = workload.Rodinia
)

// Workload types.
const (
	TypeI   = workload.TypeI
	TypeII  = workload.TypeII
	TypeIII = workload.TypeIII
)

// Re-exported parameter types (§7.1.3, §7.1.4).
type (
	// Hyper is the hyperparameter tuple.
	Hyper = params.Hyper
	// SysConfig is the system-parameter tuple (cores, memory).
	SysConfig = params.SysConfig
	// Space is a discrete search space.
	Space = params.Space
	// Dimension is one tunable axis of a Space.
	Dimension = params.Dimension
	// Assignment maps dimension names to values.
	Assignment = params.Assignment
)

// Re-exported tuning types.
type (
	// JobSpec describes one hyperparameter-tuning job.
	JobSpec = tune.JobSpec
	// JobResult is a finished job: best trial, all trials, tuning time,
	// energy, progress curve.
	JobResult = tune.JobResult
	// TrialRecord is one evaluated trial.
	TrialRecord = tune.TrialRecord
	// Mode selects the baseline behaviour (V1/V2).
	Mode = tune.Mode
	// Objective is the score a job maximises.
	Objective = tune.Objective
)

// Baseline modes (§4) and objectives (§5.1).
const (
	ModeV1                  = tune.ModeV1
	ModeV2                  = tune.ModeV2
	MaximizeAccuracy        = tune.MaximizeAccuracy
	MaximizeAccuracyPerTime = tune.MaximizeAccuracyPerTime
)

// Catalog returns the seven Table 3 workloads.
func Catalog() []Workload { return workload.Catalog() }

// WorkloadsOfType filters the catalog.
func WorkloadsOfType(types ...WorkloadType) []Workload { return workload.OfType(types...) }

// DefaultHyper returns the §3 baseline hyperparameters.
func DefaultHyper() Hyper { return params.DefaultHyper() }

// DefaultSysConfig returns the fixed configuration V1 trials run with.
func DefaultSysConfig() SysConfig { return params.DefaultSysConfig() }

// PaperHyperSpace returns the paper's hyperparameter grid.
func PaperHyperSpace() Space { return params.PaperHyperSpace() }

// PaperSystemSpace returns the paper's system-parameter grid.
func PaperSystemSpace() Space { return params.PaperSystemSpace() }

// System is a fully wired PipeTune deployment: the training substrate, the
// paper's four-node testbed, the baseline tuner and the PipeTune
// middleware with its persistent ground-truth database.
//
// A System is safe for concurrent use after New returns: RunPipeTune,
// RunBaseline and their context variants may be called from multiple
// goroutines over the same instance (the pipetuned service does exactly
// this), sharing one ground-truth database — each concurrent caller's
// trials feed it and benefit from it. Options must not be applied
// concurrently with runs.
type System struct {
	trainer  *trainer.Runner
	tuner    *tune.Runner
	pipetune *core.PipeTune
	seed     uint64
	err      error // first option error; surfaced by New
}

// Option customises a System.
type Option func(*System)

// WithSeed fixes the master seed (default 1).
func WithSeed(seed uint64) Option {
	return func(s *System) { s.seed = seed }
}

// Job dispatch policies of the pipetuned service (internal/admission):
// how the daemon arbitrates *whole tuning jobs* across tenants. Accepted
// by service.Config.JobPolicy and the pipetuned -job-policy flag.
const (
	// JobPolicyFIFO dispatches in global submission order (default; exact
	// legacy single-queue schedule).
	JobPolicyFIFO = string(admission.PolicyFIFO)
	// JobPolicyFair shares workers by weighted deficit round robin over
	// per-tenant queues.
	JobPolicyFair = string(admission.PolicyFair)
)

// fail records the first option error.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// WithCorpusSize controls the synthetic corpus size (train/test samples).
func WithCorpusSize(train, test int) Option {
	return func(s *System) {
		if train > 0 && test > 0 {
			s.trainer.Data = dataset.Config{TrainSize: train, TestSize: test}
		}
	}
}

// WithTrialCache attaches a trial prefix cache to the System's trainer:
// trials sharing a training prefix — same workload, corpus, training-
// relevant hyperparameters and seed; the system configuration never
// enters the key — replay the cached learning trajectory instead of
// recomputing SGD, bit-identically. The cache is bounded to maxBytes of
// resident trajectories, a few hundred bytes per prefix (<= 0 selects
// the default budget), with LRU eviction. Remote execution backends
// propagate the budget to workers, which keep worker-local caches under
// the same keys.
func WithTrialCache(maxBytes int64) Option {
	return func(s *System) { s.trainer.Cache = trainer.NewTrialCache(maxBytes) }
}

// ExecBackend is the pluggable execution plane trial bodies compute on:
// the default in-process pool (exec.Local — the pre-refactor behaviour,
// bit-identical) or a remote pipetune-worker fleet (exec.Remote).
type ExecBackend = exec.Backend

// SetExecBackend swaps the execution backend after construction. The
// service layer uses this to wire the remote worker fleet once it is
// constructed; it must not be called concurrently with runs. A nil
// backend restores the default local pool.
func (s *System) SetExecBackend(b ExecBackend) { s.tuner.Exec = b }

// GroundTruthStore is the pluggable ground-truth database behind
// PipeTune's cross-job reuse (§5.4): the default in-memory store or the
// daemon's WAL-backed persistent wrapper around it.
type GroundTruthStore = gt.Store

// WithGroundTruthStore replaces the System's ground-truth store — e.g. a
// pre-warmed store shared across Systems, or a custom Store. A nil store
// fails pipetune.New.
func WithGroundTruthStore(store GroundTruthStore) Option {
	return func(s *System) {
		if store == nil {
			s.fail(errors.New("pipetune: WithGroundTruthStore: nil store"))
			return
		}
		s.pipetune.GT = store
	}
}

// New builds a wired System.
func New(opts ...Option) (*System, error) {
	s := &System{
		trainer: trainer.NewRunner(),
		seed:    1,
	}
	s.tuner = tune.NewRunner(s.trainer, cluster.Paper())
	s.pipetune = core.New(s.tuner)
	for _, opt := range opts {
		opt(s)
	}
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// JobSpec assembles a standard tuning job for a workload: the paper's
// hyperparameter space, HyperBand scheduling and accuracy objective.
func (s *System) JobSpec(w Workload) JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 6
	return JobSpec{
		Workload:    w,
		Mode:        ModeV1,
		Objective:   MaximizeAccuracy,
		HyperSpace:  PaperHyperSpace(),
		SystemSpace: PaperSystemSpace(),
		BaseHyper:   h,
		BaseSys:     DefaultSysConfig(),
		Seed:        s.seed,
	}
}

// RunBaseline executes a job under plain Tune semantics (ModeV1 or ModeV2
// per spec.Mode).
func (s *System) RunBaseline(spec JobSpec) (*JobResult, error) {
	return s.tuner.RunJob(spec)
}

// RunBaselineCtx is RunBaseline with cancellation: a cancelled context
// aborts the job at the next trial boundary and returns an error
// satisfying errors.Is(err, ctx.Err()).
func (s *System) RunBaselineCtx(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return s.tuner.RunJobCtx(ctx, spec)
}

// RunPipeTune executes a job under the PipeTune middleware: pipelined
// system-parameter tuning inside every trial, backed by the System's
// persistent ground-truth database.
func (s *System) RunPipeTune(spec JobSpec) (*JobResult, error) {
	return s.pipetune.RunJob(spec)
}

// RunPipeTuneCtx is RunPipeTune with cancellation. Trials that completed
// before the cancellation have already fed the ground-truth database and
// stay there; the job result itself is discarded.
func (s *System) RunPipeTuneCtx(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return s.pipetune.RunJobCtx(ctx, spec)
}

// Bootstrap warm-starts the ground-truth database by profiling the given
// workloads under the probe grid (§7.2).
func (s *System) Bootstrap(workloads []Workload) error {
	return s.pipetune.Bootstrap(workloads, s.seed+0x9e37)
}

// GroundTruth exposes the System's similarity database for sharing with
// service layers (snapshotting, revision tracking, cross-job statistics).
func (s *System) GroundTruth() GroundTruthStore { return s.pipetune.GT }

// SetGroundTruthStore swaps the System's ground-truth store after
// construction. The service layer uses this to wrap the store with WAL
// persistence once it knows the state directory; it must not be called
// concurrently with runs.
func (s *System) SetGroundTruthStore(store GroundTruthStore) {
	if store != nil {
		s.pipetune.GT = store
	}
}

// InstrumentTrainer registers the trainer substrate's metric families on
// reg: kernel wall times, resident corpus bytes and, when WithTrialCache
// is enabled, the prefix cache's hit/miss/residency series. The service
// layer wires this when metrics are enabled; library callers may too.
// Call before running jobs.
func (s *System) InstrumentTrainer(reg *metrics.Registry) { s.trainer.InstrumentMetrics(reg) }

// PredictTrialDuration estimates a trial's simulated duration without
// running it (used for capacity planning and the multi-tenant examples).
func (s *System) PredictTrialDuration(w Workload, h Hyper, sys SysConfig) (float64, error) {
	return s.trainer.PredictDuration(w, h, sys)
}
