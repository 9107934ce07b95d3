// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §4, §7). Each FigureN/TableN function returns structured
// rows plus a renderable text table; Experiments lists them by id.
// cmd/experiments prints them at DefaultConfig, and the package's tests
// hold each table at the quick sizing to testdata/<id>.txt.
//
// All experiments run on simulated time with a fixed master seed, so the
// numbers are reproducible to the bit. See EXPERIMENTS.md for the
// paper-vs-measured comparison.
package experiments

import (
	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// Config sizes the experiment harness. Defaults balance fidelity against
// runtime; the shapes under comparison are insensitive to corpus size
// because simulated durations derive from Table 3's full sizes.
type Config struct {
	// Seed is the master seed; every experiment derives its own streams.
	Seed uint64
	// Data is the synthetic corpus size used for genuine SGD learning.
	Data dataset.Config
	// Epochs is the full per-trial epoch budget.
	Epochs int
	// MultiTenantJobs is the number of jobs per multi-tenancy trace.
	MultiTenantJobs int
}

// DefaultConfig returns the standard harness sizing.
func DefaultConfig() Config {
	return Config{
		Seed:            42,
		Data:            dataset.Config{TrainSize: 512, TestSize: 192},
		Epochs:          6,
		MultiTenantJobs: 12,
	}
}

// quickConfig shrinks everything for unit tests; testdata/ pins it.
func quickConfig() Config {
	return Config{
		Seed:            42,
		Data:            dataset.Config{TrainSize: 128, TestSize: 64},
		Epochs:          4,
		MultiTenantJobs: 6,
	}
}

// newTrainer builds the trainer substrate for an experiment.
func newTrainer(cfg Config) *trainer.Runner {
	tr := trainer.NewRunner()
	tr.Data = cfg.Data
	return tr
}

// baseSys is the fixed default configuration every V1 trial runs with
// (§4: "in this version all trials run with the same default system
// parameters"). PipeTune's gains come from correcting it per workload and
// per trial.
func baseSys() params.SysConfig {
	return params.DefaultSysConfig()
}

// hyperSpace is the evaluation's hyperparameter search space (§7.1.3 with
// three values per continuous axis).
func hyperSpace() params.Space {
	return params.Space{
		{Name: params.KeyBatchSize, Values: []float64{32, 256, 1024}},
		{Name: params.KeyLearningRate, Values: []float64{0.005, 0.01, 0.05}},
		{Name: params.KeyDropout, Values: []float64{0.0, 0.25}},
		{Name: params.KeyEmbeddingDim, Values: []float64{50, 100, 300}},
	}
}

// systemSpace is the §7.1.4 system-parameter space for the 4-node cluster.
func systemSpace() params.Space {
	return params.Space{
		{Name: params.KeyCores, Values: []float64{4, 8, 16}},
		{Name: params.KeyMemoryGB, Values: []float64{4, 8, 16, 32}},
	}
}

// singleNodeSystemSpace fits the Type-III testbed (8 cores, 24 GB).
func singleNodeSystemSpace() params.Space {
	return params.Space{
		{Name: params.KeyCores, Values: []float64{2, 4, 8}},
		{Name: params.KeyMemoryGB, Values: []float64{4, 8, 16}},
	}
}

// singleNodeBaseSys is the operator default on the single-node testbed.
func singleNodeBaseSys() params.SysConfig {
	return params.SysConfig{Cores: 8, MemoryGB: 16}
}

// singleNodeProbes is the probing grid PipeTune uses on the single node.
func singleNodeProbes() []params.SysConfig {
	return []params.SysConfig{
		{Cores: 2, MemoryGB: 8},
		{Cores: 4, MemoryGB: 8},
		{Cores: 8, MemoryGB: 8},
		{Cores: 4, MemoryGB: 16},
		{Cores: 8, MemoryGB: 16},
	}
}

// jobSpec assembles the standard HPT job for a workload under a mode.
func jobSpec(cfg Config, w workload.Workload, mode tune.Mode, seed uint64, singleNode bool) tune.JobSpec {
	h := params.DefaultHyper()
	h.Epochs = cfg.Epochs
	obj := tune.MaximizeAccuracy
	if mode == tune.ModeV2 {
		obj = tune.MaximizeAccuracyPerTime
	}
	sys := baseSys()
	sysSpace := systemSpace()
	if singleNode {
		sys = singleNodeBaseSys()
		sysSpace = singleNodeSystemSpace()
	}
	// Searcher stays nil: tune's default is HyperBand (§6) with a sample
	// budget that scales with the mode's search-space size.
	return tune.JobSpec{
		Workload:    w,
		Mode:        mode,
		Objective:   obj,
		HyperSpace:  hyperSpace(),
		SystemSpace: sysSpace,
		BaseHyper:   h,
		BaseSys:     sys,
		Seed:        seed,
	}
}

// paperCluster builds the 4-node testbed; singleNode the Type-III one.
func paperCluster() *cluster.Cluster { return cluster.Paper() }
func singleNode() *cluster.Cluster   { return cluster.SingleNode() }
