// Package core implements PipeTune itself — the paper's primary
// contribution (§5): pipelined tuning of system parameters inside each
// hyperparameter trial, at epoch granularity.
//
// Algorithm 1 of the paper maps onto this package as follows:
//
//	train(...)            -> tune.Runner executes the trial; the trainer
//	                         invokes the Controller at each epoch boundary
//	                         (the asynchronous tuneSystem call).
//	getProfile(job)       -> the 58-event PMU profile of the first epoch a
//	                         system-cost key runs, on the base configuration.
//	getSimilarity(profile)-> GroundTruth.Lookup: the nearest historical
//	                         profiles; a hit within Threshold × the
//	                         store's spread returns the configuration its
//	                         neighbourhood won most (§5.4, §5.6).
//	probing loop          -> on a miss, each subsequent epoch runs one
//	                         candidate configuration; the shortest epoch
//	                         picks the best (runtime, O(n) in the number
//	                         of configurations, §5.2) and applies it for
//	                         the remaining epochs.
//
// The state machine belongs to a system-cost key, not to a trial. On the
// paper's substrate a configuration HyperBand promotes is the same trial
// resumed; here it is a new trial with a new ID. And the simulated cost of
// an epoch reads only the workload, the system configuration and the
// hyperparameters costmodel.SysKey keeps (batch size, embedding width),
// never the learning rate, dropout or epoch budget. So the per-job
// Controller keeps every finished trial's tuning under the trial's
// system-cost key, and a later trial of the same job with the same key —
// a promoted survivor, or a cost twin that trains other hyperparameters at
// the same cost — continues it: it starts on the configuration the
// predecessor's next epoch would have run on, neither profiles nor looks
// up again, validates a ground-truth answer the predecessor never ran
// against the predecessor's baseline, and resumes an unfinished probe
// sequence at the next unmeasured configuration (after asking the ground
// truth once more). A requeued trial (Restart) is reset to the state it
// started from, not to blank.
//
// Completed trials feed their profile and winning configuration back into
// the ground-truth database, which re-clusters — so later jobs with
// similar profiles skip probing entirely (§7.4's "unseen jobs" economy).
// A trial feeds it only what it measured beyond what it inherited, always
// with the features profiled on the base configuration.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pipetune/internal/costmodel"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// DefaultProbeConfigs returns the §5.6 probing grid over the §7.1.4 system
// ranges: cores × memory at power-of-two steps. Kept small because each
// probe consumes one epoch.
func DefaultProbeConfigs() []params.SysConfig {
	return []params.SysConfig{
		{Cores: 4, MemoryGB: 8},
		{Cores: 8, MemoryGB: 8},
		{Cores: 16, MemoryGB: 8},
		{Cores: 4, MemoryGB: 32},
		{Cores: 8, MemoryGB: 32},
		{Cores: 16, MemoryGB: 32},
	}
}

// trialPhase is the per-configuration state machine of Algorithm 1.
type trialPhase int

const (
	phaseProfiling trialPhase = iota + 1
	phaseProbing
	phaseApplied
)

// probeResult is one epoch-level measurement of a configuration. Probing
// compares epoch durations, the paper's runtime objective (§5.2).
type probeResult struct {
	sys      params.SysConfig
	duration float64
}

// trialState is the pipelined tuning of one system-cost key. It starts
// blank with the key's first trial and is handed on, by Finish and
// ObserverFor, to every later trial of the same job with the same key.
type trialState struct {
	phase trialPhase
	// features is the profile of the first epoch the key ever ran, on
	// the job's base system configuration — the distribution every
	// stored ground-truth entry was sampled on. Successors never re-profile.
	features []float64
	// measured holds every epoch the key has run, oldest first;
	// the first `inherited` of them were measured by earlier trials.
	measured  []probeResult
	inherited int
	applied   params.SysConfig
	fromGT    bool
	validated bool
	baseline  float64 // duration of the profiling epoch
	// probeEpochs counts the epochs the key has spent probing, over all
	// its trials (MaxProbeEpochs bounds it).
	probeEpochs int
	// next is the system configuration the next epoch runs on: a
	// successor's start configuration.
	next params.SysConfig
	// hyper is the hyperparameters, Epochs zeroed, of the trial advancing
	// this copy — once filed, of the trial that filed it: a successor that
	// trains others is a cost twin.
	hyper params.Hyper
	// counts is the share of the Counts of the trial advancing this copy.
	counts Counts
}

// clone copies the state for a trial to advance; the measurement list gets
// its own backing array, features are immutable and stay shared.
func (st *trialState) clone() *trialState {
	cp := *st
	cp.measured = append([]probeResult(nil), st.measured...)
	return &cp
}

// Counts says where the epochs of the trials a Controller has finished
// went, and what they asked the ground truth.
type Counts struct {
	Trials        int `json:"trials"`
	Inheriting    int `json:"inheriting"`    // trials that continued an earlier trial's tuning
	CostTwins     int `json:"costTwins"`     // inheriting trials whose state a trial of other hyperparameters filed
	ProfileEpochs int `json:"profileEpochs"` // first epochs on the base configuration
	ProbeEpochs   int `json:"probeEpochs"`
	AppliedEpochs int `json:"appliedEpochs"` // epochs on a settled or ground-truth configuration
	Lookups       int `json:"lookups"`
	Hits          int `json:"hits"`
}

func (c *Counts) add(o Counts) {
	c.Trials += o.Trials
	c.Inheriting += o.Inheriting
	c.CostTwins += o.CostTwins
	c.ProfileEpochs += o.ProfileEpochs
	c.ProbeEpochs += o.ProbeEpochs
	c.AppliedEpochs += o.AppliedEpochs
	c.Lookups += o.Lookups
	c.Hits += o.Hits
}

// liveTrial is one running trial: its system-cost key, the immutable state
// it started from (what Restart replays) and the copy its epochs advance.
type liveTrial struct {
	key   params.Hyper
	start *trialState
	st    *trialState
}

// Controller coordinates pipelined system-parameter tuning for the trials
// of one HPT job. It implements the paper's tuneSystem (Algorithm 1, lines
// 6-17) as a trainer.EpochObserver per trial, and keeps every finished
// trial's tuning under its system-cost key, so a configuration HyperBand
// promotes to a longer rung — a new trial with a new ID — continues where
// its previous rung stopped, and a trial that costs what a finished one
// cost starts where that one stopped.
type Controller struct {
	GT     gt.Store
	Probes []params.SysConfig

	// MaxProbeEpochs bounds how many epochs a single configuration may
	// spend probing (0 = no bound beyond the probe list length).
	MaxProbeEpochs int

	mu     sync.Mutex
	trials map[int]*liveTrial
	// finished is keyed by costmodel.SysKey of the applied hyperparameters:
	// what a HyperBand survivor shares with its previous rung (Epochs, the
	// rung's budget, is zeroed) and a cost twin with the trial it costs the
	// same as (LearningRate and Dropout are zeroed too). Values are
	// immutable.
	finished map[params.Hyper]*trialState
	counts   Counts
}

// NewController creates a controller with the default probe grid.
func NewController(store gt.Store) *Controller {
	return &Controller{
		GT:       store,
		Probes:   DefaultProbeConfigs(),
		trials:   make(map[int]*liveTrial),
		finished: make(map[params.Hyper]*trialState),
	}
}

// Counts returns the totals over the trials finished so far.
func (c *Controller) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Restart resets a trial to the state it started from so its body can be
// re-run from epoch one (a remote lease requeued after worker eviction).
// That state — blank, or the predecessor's finished tuning, including the
// answer to a mid-probe successor's renewed ground-truth question — was
// fixed with the start configuration when the batch was built, so an
// inheriting replay is handed the same directives as the first attempt.
// A blank trial's replay asks the ground truth again after its profile
// epoch: within one job the answer is the same (this job adds only
// between batches), beside a concurrent job on the shared store it may
// not be, and the replay then follows the newer answer.
func (c *Controller) Restart(trialID int) {
	c.mu.Lock()
	if lt, ok := c.trials[trialID]; ok {
		lt.st = lt.start.clone()
	}
	c.mu.Unlock()
}

// ObserverFor registers one trial and returns its epoch observer and the
// system configuration its first epoch runs on; pass this to
// tune.JobSpec.TrialObserver. A trial whose system-cost key no finished
// trial of the job had starts blank on sys. Any other continues the state
// machine last filed under the key: it starts on the configuration the
// predecessor's next epoch would have run on and neither profiles nor
// looks up again — except after a predecessor that ended still probing,
// where the ground truth (which has learned from the job's other trials
// since) is asked once more, here, with the inherited features.
func (c *Controller) ObserverFor(trialID int, h params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
	key := costmodel.SysKey(h)
	h.Epochs = 0
	c.mu.Lock()
	defer c.mu.Unlock()
	start := &trialState{phase: phaseProfiling, next: sys, counts: Counts{Trials: 1}}
	if prev, ok := c.finished[key]; ok {
		start = prev.clone()
		start.inherited = len(start.measured)
		start.counts = Counts{Trials: 1, Inheriting: 1}
		if prev.hyper != h {
			start.counts.CostTwins = 1
		}
		if start.phase == phaseProbing {
			if cfg, ok := c.lookupLocked(start); ok {
				start.applyGT(cfg)
			}
		}
	}
	start.hyper = h
	c.trials[trialID] = &liveTrial{key: key, start: start, st: start.clone()}
	obs := trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		return c.onEpoch(trialID, s)
	})
	return obs, start.next
}

// lookupLocked asks the ground truth about st's profile and counts the
// question. Callers hold c.mu.
func (c *Controller) lookupLocked(st *trialState) (params.SysConfig, bool) {
	cfg, ok := c.GT.Lookup(st.features)
	st.counts.Lookups++
	if ok {
		st.counts.Hits++
	}
	return cfg, ok
}

// applyGT applies a ground-truth answer from the next epoch on; the first
// epoch that runs on it validates it.
func (st *trialState) applyGT(cfg params.SysConfig) {
	st.phase = phaseApplied
	st.applied, st.next = cfg, cfg
	st.fromGT = true
	st.validated = false
}

// onEpoch advances the state machine. The returned configuration (if any)
// applies from the next epoch onward.
func (c *Controller) onEpoch(trialID int, s trainer.EpochStats) *params.SysConfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	lt, ok := c.trials[trialID]
	if !ok {
		return nil // already finished: nothing left to steer
	}
	st := lt.st
	st.measured = append(st.measured, probeResult{sys: s.Sys, duration: s.Duration})
	next := c.advanceLocked(st, s)
	st.next = s.Sys
	if next != nil {
		st.next = *next
	}
	return next
}

// advanceLocked is one step of Algorithm 1 on the epoch just appended to
// st.measured. Callers hold c.mu.
func (c *Controller) advanceLocked(st *trialState, s trainer.EpochStats) *params.SysConfig {
	switch st.phase {
	case phaseProfiling:
		// Line 7-8: profile the first epoch, query the similarity
		// function.
		st.counts.ProfileEpochs++
		st.features = s.Profile.Features()
		st.baseline = st.measured[0].duration
		if cfg, ok := c.lookupLocked(st); ok {
			// Line 9-10: within the confidence threshold — apply the
			// known-best configuration, no probing needed.
			st.applyGT(cfg)
			return &cfg
		}
		// Line 11-15: start probing.
		st.phase = phaseProbing
		return c.probeOrSettleLocked(st)
	case phaseProbing:
		st.counts.ProbeEpochs++
		st.probeEpochs++
		if c.MaxProbeEpochs > 0 && st.probeEpochs >= c.MaxProbeEpochs {
			return c.settleLocked(st)
		}
		return c.probeOrSettleLocked(st)
	default:
		st.counts.AppliedEpochs++
		// Reliability guard on ground-truth reuse: the first epoch after
		// applying a cluster's configuration validates it against the
		// configuration's own baseline (for a successor, the predecessor's
		// profiling epoch: same workload, same system-cost key, so the same
		// cost on every configuration). Cluster-level configurations are
		// hyperparameter-agnostic, so a config that was best for the
		// cluster's typical trials can regress an atypical one (e.g. a much
		// larger batch size); in that case fall back to probing — the §5.6
		// rule of distrusting low-reliability predictions, applied online.
		if st.fromGT && !st.validated {
			st.validated = true
			if st.measured[len(st.measured)-1].duration > st.baseline*1.10 {
				st.phase = phaseProbing
				st.fromGT = false
				return c.probeOrSettleLocked(st)
			}
		}
		return nil
	}
}

// probeOrSettleLocked returns the first probe configuration nobody has
// measured for this configuration yet (line 11-15) or, once the grid is
// exhausted, settles (line 16-17). Callers hold c.mu.
func (c *Controller) probeOrSettleLocked(st *trialState) *params.SysConfig {
	for _, cfg := range c.Probes {
		if !measuredIn(st.measured, cfg) {
			return &cfg
		}
	}
	return c.settleLocked(st)
}

// measuredIn reports whether sys is among the measurements.
func measuredIn(measured []probeResult, sys params.SysConfig) bool {
	for _, m := range measured {
		if m.sys == sys {
			return true
		}
	}
	return false
}

// settleLocked picks the best measured configuration ("find best config in
// m", Algorithm 1 line 16) and applies it. Callers hold c.mu.
func (c *Controller) settleLocked(st *trialState) *params.SysConfig {
	st.phase = phaseApplied
	best := st.measured[0]
	for _, m := range st.measured[1:] {
		if m.duration < best.duration {
			best = m
		}
	}
	st.applied = best.sys
	return &best.sys
}

// Finish must be called when a trial completes (wire it to
// tune.JobSpec.OnTrialDone). It keeps the trial's tuning for the job's
// later trials of the same system-cost key and feeds the ground-truth
// database what the trial learned.
func (c *Controller) Finish(trialID int, _ *trainer.Result) {
	c.mu.Lock()
	lt, ok := c.trials[trialID]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.trials, trialID)
	st := lt.st
	c.finished[lt.key] = st
	c.counts.add(st.counts)
	var entry *gt.Entry
	if st.features != nil && comparedConfigs(st.measured) && learnedNew(st) {
		// Only comparative evidence (at least two distinct configurations
		// measured) contributes: a configuration that only ever ran its
		// start configuration knows nothing about what is *best* and would
		// drown the database in "default is best" votes. And only new
		// evidence: a successor that ran on what its predecessors had
		// already measured would re-add their entry once per rung.
		e := gtEntry(st.features, st.measured)
		entry = &e
	}
	c.mu.Unlock()
	if entry != nil {
		// Ground-truth updates only grow the database; errors here must
		// not fail the trial (degraded ground truth, not a broken job).
		_ = c.GT.Add(*entry)
	}
}

// comparedConfigs reports whether at least two distinct system
// configurations were measured.
func comparedConfigs(measured []probeResult) bool {
	for _, m := range measured {
		if m.sys != measured[0].sys {
			return true
		}
	}
	return false
}

// gtEntry is the one rule for a ground-truth entry: the profile features,
// the shortest of the (non-empty) measurements — the first of equals — and
// its advantage, best ÷ mean duration (1 when the mean is not positive).
func gtEntry(features []float64, measured []probeResult) gt.Entry {
	best := measured[0]
	mean := 0.0
	for _, m := range measured {
		mean += m.duration
		if m.duration < best.duration {
			best = m
		}
	}
	mean /= float64(len(measured))
	advantage := 1.0
	if mean > 0 {
		advantage = best.duration / mean
	}
	return gt.Entry{Features: features, BestSys: best.sys, Metric: advantage}
}

// learnedNew reports whether the trial measured a system configuration
// that the state it inherited had not.
func learnedNew(st *trialState) bool {
	for _, m := range st.measured[st.inherited:] {
		if !measuredIn(st.measured[:st.inherited], m.sys) {
			return true
		}
	}
	return false
}

// PipeTune wraps a tune.Runner with the pipelined system-tuning middleware.
// One PipeTune instance holds one persistent ground-truth database shared
// by every job it runs — the cross-job learning of §7.4.
//
// A PipeTune job is placed like the baselines, first come, first served
// on its Runner's cluster. PipeTune trials change their system
// configuration mid-flight, and the scheduler re-negotiates each trial's
// cluster allocation at the matching epoch boundary (§5.6 dynamic
// reconfiguration) — capacity those reconfigurations free goes to the
// oldest waiting trial.
type PipeTune struct {
	Runner *tune.Runner
	GT     gt.Store
	Probes []params.SysConfig
}

// New creates a PipeTune middleware with an empty ground-truth database,
// safe for the service's shared cross-job use (internal/gt documents the
// store).
func New(runner *tune.Runner) *PipeTune {
	return &PipeTune{
		Runner: runner,
		GT:     gt.NewMemory(gt.DefaultConfig()),
		Probes: DefaultProbeConfigs(),
	}
}

// RunJob executes an HPT job under PipeTune: the hyperparameter search is
// untouched (V1 semantics, accuracy objective preserved), while each
// trial's system parameters are tuned in the pipelined fashion of
// Algorithm 1.
func (p *PipeTune) RunJob(spec tune.JobSpec) (*tune.JobResult, error) {
	return p.RunJobCtx(context.Background(), spec)
}

// RunJobCtx is RunJob with cancellation, forwarded to the tuning event
// loop. A cancelled job contributes whatever completed trials it already
// fed to the ground-truth database (knowledge is kept; the job result is
// not).
func (p *PipeTune) RunJobCtx(ctx context.Context, spec tune.JobSpec) (*tune.JobResult, error) {
	res, _, err := p.RunJobCounts(ctx, spec)
	return res, err
}

// RunJobCounts is RunJobCtx that also reports where the job's epochs went
// (the per-job controller's Counts).
func (p *PipeTune) RunJobCounts(ctx context.Context, spec tune.JobSpec) (*tune.JobResult, Counts, error) {
	if p.Runner == nil || p.GT == nil {
		return nil, Counts{}, errors.New("core: PipeTune not wired")
	}
	ctrl := NewController(p.GT)
	ctrl.Probes = p.Probes

	spec.Mode = tune.ModeV1 // hyper space only; system handled by the pipeline
	spec.TrialObserver = ctrl.ObserverFor
	spec.TrialRestart = ctrl.Restart
	prevDone := spec.OnTrialDone
	spec.OnTrialDone = func(trialID int, res *trainer.Result) {
		ctrl.Finish(trialID, res)
		if prevDone != nil {
			prevDone(trialID, res)
		}
	}
	res, err := p.Runner.RunJobCtx(ctx, spec)
	return res, ctrl.Counts(), err
}

// Bootstrap warm-starts the ground-truth database by profiling each given
// workload under every probe configuration for one epoch, at several batch
// sizes — the §7.2 "initial similarity model" campaign (which varies
// memory, cores AND batch size), scaled down. Varying the batch size
// matters: it widens each cluster's radius to cover the profile spread
// that real trials (whose hyperparameters the search varies) will exhibit.
func (p *PipeTune) Bootstrap(workloads []workload.Workload, seed uint64) error {
	if p.Runner == nil || p.Runner.Trainer == nil {
		return errors.New("core: PipeTune not wired")
	}
	for wi, w := range workloads {
		for bi, batch := range []int{32, 1024} {
			h := params.DefaultHyper()
			h.Epochs = 1
			h.BatchSize = batch
			// The first probe run is the profiled one: its single epoch's
			// observation becomes the entry's features.
			var features []float64
			profiler := trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
				features = s.Profile.Features()
				return nil
			})
			measured := make([]probeResult, 0, len(p.Probes))
			for ci, sys := range p.Probes {
				var obs trainer.EpochObserver
				if ci == 0 {
					obs = profiler
				}
				res, err := p.Runner.Trainer.Run(w, h, sys, seed+uint64(wi*1000+bi*100+ci), obs)
				if err != nil {
					return fmt.Errorf("core: bootstrap %s at %v: %w", w.Name(), sys, err)
				}
				epoch := res.Epochs[len(res.Epochs)-1]
				measured = append(measured, probeResult{sys: sys, duration: epoch.Duration})
			}
			if len(measured) > 0 {
				if err := p.GT.Add(gtEntry(features, measured)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
