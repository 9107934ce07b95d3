// Package trainer is the training-framework substrate (the paper uses BigDL
// on Spark, §6): it executes one training trial epoch by epoch, producing
// for every epoch the quantities the rest of the system consumes —
//
//   - genuine SGD learning progress (loss/accuracy) from package nn,
//   - simulated epoch duration from package costmodel,
//   - energy from package energy (a 1 Hz power series, integrated),
//   - a 58-event PMU profile from package perf, for observed trials.
//
// Crucially for PipeTune, the trainer exposes an EpochObserver invoked at
// every epoch boundary which may change the system configuration for the
// remaining epochs — the mechanism behind Algorithm 1's pipelined
// tuneSystem: system tuning proceeds *inside* the trial without pausing it.
package trainer

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"pipetune/internal/costmodel"
	"pipetune/internal/dataset"
	"pipetune/internal/energy"
	"pipetune/internal/metrics"
	"pipetune/internal/nn"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// EpochStats describes one completed epoch (or the init phase, Epoch = 0
// with Init = true).
type EpochStats struct {
	Epoch     int              `json:"epoch"` // 1-based; 0 for init
	Init      bool             `json:"init"`
	Sys       params.SysConfig `json:"sys"`      // configuration this epoch ran with
	Duration  float64          `json:"duration"` // simulated seconds
	EndTime   float64          `json:"endTime"`  // simulated time at epoch end
	TrainLoss float64          `json:"trainLoss"`
	Accuracy  float64          `json:"accuracy"` // test accuracy after this epoch
	EnergyJ   float64          `json:"energyJ"`
	// Profile is the epoch's PMU observation. It exists only in the
	// EpochStats handed to an EpochObserver and is valid for the duration
	// of that callback; a Result's Epochs carry none.
	Profile perf.Profile `json:"-"`
}

// Result is the outcome of a full trial.
type Result struct {
	Workload workload.Workload `json:"workload"`
	Hyper    params.Hyper      `json:"hyper"`
	FinalSys params.SysConfig  `json:"finalSys"`
	Accuracy float64           `json:"accuracy"` // final test accuracy
	Duration float64           `json:"duration"` // total simulated seconds (init + epochs)
	EnergyJ  float64           `json:"energyJ"`
	Epochs   []EpochStats      `json:"epochs"`
}

// Clone returns a deep copy sharing no mutable memory with the receiver,
// so a caller handed a Result can never corrupt the original.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Epochs != nil { // preserve nil-ness: Save/Load round-trips stay bit-identical
		cp.Epochs = make([]EpochStats, len(r.Epochs))
		for i, e := range r.Epochs {
			e.Profile = append(perf.Profile(nil), e.Profile...)
			cp.Epochs[i] = e
		}
	}
	return &cp
}

// EpochObserver receives epoch-boundary callbacks. Returning a non-nil
// configuration switches the trial's system parameters for subsequent
// epochs (the cluster allocation is the caller's concern). Observers run
// synchronously inside the trial.
type EpochObserver interface {
	OnEpochEnd(trialSeed uint64, w workload.Workload, h params.Hyper, s EpochStats) *params.SysConfig
}

// ObserverFunc adapts a function to EpochObserver.
type ObserverFunc func(trialSeed uint64, w workload.Workload, h params.Hyper, s EpochStats) *params.SysConfig

// OnEpochEnd implements EpochObserver.
func (f ObserverFunc) OnEpochEnd(seed uint64, w workload.Workload, h params.Hyper, s EpochStats) *params.SysConfig {
	return f(seed, w, h, s)
}

// Runner executes trials. It is safe for concurrent use: per-trial state is
// local, and the corpora are lock-protected.
type Runner struct {
	Cost    costmodel.Model
	Power   energy.PowerModel
	Sampler *perf.Sampler
	Data    dataset.Config

	// Load is the contention multiplier applied to every epoch duration
	// (1 = dedicated resources; >1 = co-located jobs, Figure 5's setup).
	Load float64

	// DataSeed seeds corpus synthesis. It is deliberately independent of
	// trial seeds: all trials of a workload see the same corpus, exactly
	// as all trials of a real HPT job read the same dataset.
	DataSeed uint64

	// Cache, when non-nil, is the trial prefix cache: trials sharing a
	// training prefix (same workload, corpus, training-relevant hyper
	// fields and seed — SysConfig never enters the key) replay cached
	// SGD instead of recomputing it, bit-identically. Attach before
	// running trials; share one cache across all trials of a process.
	Cache *TrialCache

	// The corpora are a working set, not state: dataset.Generate rebuilds
	// one bit for bit. A corpus is held weakly, and strongly (pinned) only
	// while any trial of this runner trains, so an idle runner hands its
	// corpora to the collector and the next trial to train regenerates.
	mu            sync.Mutex
	corpora       map[string]weak.Pointer[corpusPair]
	pinned        map[string]*corpusPair // the corpora of the current busy period
	training      int                    // trials inside their training closure
	corpusBytes   int64                  // sum of Set.Bytes over the live corpora
	corpusGauge   *metrics.Gauge         // trainer_corpus_bytes; mirrors corpusBytes
	corpusGenCtr  *metrics.Counter       // trainer_corpus_generations_total
	corpusFlights flightGroup
	corpusGens    atomic.Uint64 // corpus syntheses (test hook)
	epochSeconds  atomic.Pointer[metrics.Distribution]
	evalSeconds   atomic.Pointer[metrics.Distribution]
}

type corpusPair struct {
	train, test *dataset.Set
}

// NewRunner returns a Runner with the calibrated default models.
func NewRunner() *Runner {
	return &Runner{
		Cost:     costmodel.Default(),
		Power:    energy.DefaultPowerModel(),
		Sampler:  perf.NewSampler(),
		Data:     dataset.DefaultConfig(),
		Load:     1,
		DataSeed: 0x0da7a5eed,
	}
}

// corpus returns the dataset split for a workload, generating it when no
// live copy exists, and pins it while any trial of r trains. The key
// includes only the dataset and sizes — matching the paper's reality that
// Type-II workloads share one corpus. Synthesis always uses DataSeed,
// never a trial seed, so concurrent trials cannot race on corpus identity;
// a singleflight collapses N concurrent first trials of a workload into
// one generation (still outside r.mu, so trials on a live corpus never
// wait behind a synthesis).
func (r *Runner) corpus(w workload.Workload) (*corpusPair, error) {
	key := r.corpusKey(w)
	r.mu.Lock()
	if cp := r.corpora[key].Value(); cp != nil {
		r.pinLocked(key, cp)
		r.mu.Unlock()
		return cp, nil
	}
	r.mu.Unlock()

	v, err, _ := r.corpusFlights.Do(key, func() (any, error) {
		// A previous flight may have published while this caller was
		// between the lookup and the flight.
		r.mu.Lock()
		cp := r.corpora[key].Value()
		r.mu.Unlock()
		if cp != nil {
			return cp, nil
		}
		r.corpusGens.Add(1)
		train, test, err := dataset.Generate(w, r.DataSeed, r.Data)
		if err != nil {
			return nil, err
		}
		cp = &corpusPair{train: train, test: test}
		ref := corpusRef{key: key, wp: weak.Make(cp), bytes: train.Bytes() + test.Bytes()}
		r.mu.Lock()
		if r.corpora == nil {
			r.corpora = make(map[string]weak.Pointer[corpusPair])
		}
		r.corpora[key] = ref.wp
		r.corpusBytes += ref.bytes
		r.corpusGauge.Set(float64(r.corpusBytes))
		r.corpusGenCtr.Inc()
		r.mu.Unlock()
		runtime.AddCleanup(cp, r.dropCorpus, ref)
		return cp, nil
	})
	if err != nil {
		return nil, err
	}
	cp := v.(*corpusPair)
	r.mu.Lock()
	r.pinLocked(key, cp)
	r.mu.Unlock()
	return cp, nil
}

// corpusKey names the corpus trials of w read.
func (r *Runner) corpusKey(w workload.Workload) string {
	return w.Dataset.String() + "/" + strconv.Itoa(r.Data.TrainSize) + "/" + strconv.Itoa(r.Data.TestSize)
}

// corpusRef is what a corpus's cleanup needs to unaccount it, without
// the corpus itself (a cleanup referencing it would keep it alive).
type corpusRef struct {
	key   string
	wp    weak.Pointer[corpusPair]
	bytes int64
}

// dropCorpus runs once a corpus has been collected: its bytes leave the
// gauge, and its key leaves the map unless a newer generation holds it.
func (r *Runner) dropCorpus(ref corpusRef) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.corpora[ref.key] == ref.wp {
		delete(r.corpora, ref.key)
	}
	r.corpusBytes -= ref.bytes
	r.corpusGauge.Set(float64(r.corpusBytes))
}

// pinLocked holds cp strongly until the runner's busy period ends. Outside
// one (a direct call, in tests) it pins nothing. Callers hold r.mu.
func (r *Runner) pinLocked(key string, cp *corpusPair) {
	if r.training == 0 {
		return
	}
	if r.pinned == nil {
		r.pinned = make(map[string]*corpusPair)
	}
	r.pinned[key] = cp
}

// busy counts a trial entering (+1) or leaving (-1) its training
// closure; the last one out ends the busy period and unpins its corpora.
func (r *Runner) busy(d int) {
	r.mu.Lock()
	if r.training += d; r.training == 0 {
		clear(r.pinned)
	}
	r.mu.Unlock()
}

// InstrumentMetrics registers the trainer's instruments on reg: the kernel
// wall-time sketches, the resident corpus bytes, the corpus generations
// and, when a trial prefix cache is attached, its hit/miss/residency
// families. Call before running trials. A nil registry keeps every update
// a no-op.
func (r *Runner) InstrumentMetrics(reg *metrics.Registry) {
	r.epochSeconds.Store(reg.Distribution("nn_train_epoch_seconds", "Wall-clock seconds per nn training epoch (real SGD compute, not the simulated epoch duration)."))
	r.evalSeconds.Store(reg.Distribution("nn_eval_seconds", "Wall-clock seconds per nn test-set evaluation."))
	r.mu.Lock()
	r.corpusGauge = reg.Gauge("trainer_corpus_bytes", "Bytes of the resident generated corpora, derived from the parts each split stores; falls when an idle trainer's corpus is collected.")
	r.corpusGauge.Set(float64(r.corpusBytes))
	r.corpusGenCtr = reg.Counter("trainer_corpus_generations_total", "Corpora generated, the first time and again after an idle trainer's copy was collected.")
	r.mu.Unlock()
	if r.Cache != nil {
		r.Cache.InstrumentMetrics(reg)
	}
}

// InstrumentKernels points the kernel wall-time sketches at caller-owned
// distributions instead of a registry — the worker agents use this to
// ship per-session kernel latency on heartbeats the same way they ship
// trial seconds. Either instrumentation path may be re-pointed at any
// time; nil distributions turn observation back into a no-op.
func (r *Runner) InstrumentKernels(epoch, eval *metrics.Distribution) {
	r.epochSeconds.Store(epoch)
	r.evalSeconds.Store(eval)
}

// prefixKey derives the trial prefix cache key: every input SGD progress
// depends on — the network nn.Build constructs for the model (its Arch:
// the three Rodinia kernels train one and the same classifier, so they
// share a prefix), the dataset, the corpus (sizes and DataSeed), the
// training-relevant Hyper fields (batch size, learning rate, dropout,
// embedding dim; float64s as exact bit patterns) and the trial seed. Epochs
// is deliberately excluded (a shallow request is a prefix of a deep one),
// and so are SysConfig, Load and the cost/power models — they shape the
// simulation, never the learning curve.
func (r *Runner) prefixKey(w workload.Workload, h params.Hyper, seed uint64) string {
	b := make([]byte, 0, 96)
	b = append(b, "v2|"...)
	b = strconv.AppendInt(b, int64(nn.ArchOf(w.Model)), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(w.Dataset), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, r.DataSeed, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(r.Data.TrainSize), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(r.Data.TestSize), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(h.BatchSize), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, math.Float64bits(h.LearningRate), 16)
	b = append(b, '/')
	b = strconv.AppendUint(b, math.Float64bits(h.Dropout), 16)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(h.EmbeddingDim), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, seed, 16)
	return string(b)
}

// trainEpoch runs one real SGD epoch, observing its wall time into the
// nn_train_epoch_seconds sketch.
func (r *Runner) trainEpoch(net *nn.Network, set *dataset.Set, h params.Hyper, rng *xrand.Source) (float64, error) {
	t0 := time.Now()
	loss, err := net.TrainEpoch(set, h.BatchSize, h.LearningRate, rng)
	r.epochSeconds.Load().Observe(time.Since(t0).Seconds())
	return loss, err
}

// evaluate runs a test-set evaluation, observing its wall time into the
// nn_eval_seconds sketch, and returns the accuracy.
func (r *Runner) evaluate(net *nn.Network, set *dataset.Set) (float64, error) {
	t0 := time.Now()
	acc, err := net.Evaluate(set)
	r.evalSeconds.Load().Observe(time.Since(t0).Seconds())
	return acc, err
}

// RunWithCacheKey is Run; its key is accepted and ignored. Delete with the next benchmark PR.
func (r *Runner) RunWithCacheKey(w workload.Workload, h params.Hyper, sys params.SysConfig, seed uint64, obs EpochObserver, _ string) (*Result, error) {
	return r.Run(w, h, sys, seed, obs)
}

// Run executes one trial of w with hyperparameters h, starting from system
// configuration sys. The observer (optional) can re-configure the system at
// each epoch boundary. All randomness derives from seed. With a Cache
// attached, the trial's prefix key is derived here, from this trainer's
// corpus and the trial's inputs, on whichever process runs it.
func (r *Runner) Run(w workload.Workload, h params.Hyper, sys params.SysConfig, seed uint64, obs EpochObserver) (*Result, error) {
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	if r.Sampler == nil {
		return nil, errors.New("trainer: nil perf sampler")
	}
	load := r.Load
	if load < 1 {
		load = 1
	}
	tr := workload.TraitsFor(w)

	// The RNG split order is load-bearing: training streams (netRng,
	// shuffleRng) come before and are independent of the simulation
	// streams (perfRng, powerRng), so the prefix cache may replay SGD
	// without touching the simulated profile/power draws — the replayed
	// result stays bit-identical to an uncached run.
	rng := xrand.New(seed)
	netRng := rng.Split()
	shuffleRng := rng.Split()
	perfRng := rng.Split()
	powerRng := rng.Split()

	// train is the one training path: h.Epochs of real SGD from epoch 0,
	// each followed by a test-set evaluation. With a cache attached it
	// runs only on a miss; the simulation loop below reads the resolved
	// trajectory either way, so a replay never builds a corpus.
	train := func() ([]TrajPoint, error) {
		r.busy(1)
		defer r.busy(-1)
		cp, err := r.corpus(w)
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		net, err := nn.Build(w.Model, cp.train.Dim, cp.train.NumClasses, h, netRng)
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		pts := make([]TrajPoint, 0, h.Epochs)
		for epoch := 1; epoch <= h.Epochs; epoch++ {
			loss, err := r.trainEpoch(net, cp.train, h, shuffleRng)
			if err != nil {
				return nil, fmt.Errorf("trainer: epoch %d: %w", epoch, err)
			}
			acc, err := r.evaluate(net, cp.test)
			if err != nil {
				return nil, fmt.Errorf("trainer: epoch %d eval: %w", epoch, err)
			}
			pts = append(pts, TrajPoint{Loss: loss, Acc: acc})
		}
		return pts, nil
	}
	var (
		pts []TrajPoint
		err error
	)
	if c := r.Cache; c != nil {
		pts, err = c.trajectory(r.prefixKey(w, h, seed), h.Epochs, train)
	} else {
		pts, err = train()
	}
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: w, Hyper: h, FinalSys: sys, Epochs: make([]EpochStats, 0, h.Epochs+1)}
	clock := 0.0

	// runPhase simulates one phase, appends it to the result and returns
	// the stats an observer is handed. A PMU profile is an epoch-boundary
	// observation, not a result: it is sampled only when someone observes
	// the trial, rides in the returned stats alone, and is never retained.
	// perfRng feeds nothing else, so an unobserved trial that skips its
	// draws is otherwise bit-identical; an observed one draws in every
	// phase (the unseen init phase included), keeping its stream position
	// and therefore every profile its observer sees unchanged.
	runPhase := func(epoch int, init bool, trainLoss, acc float64) (EpochStats, error) {
		var duration float64
		var computeFrac float64
		if init {
			duration = r.Cost.InitDuration(tr)
			computeFrac = 0.3 // I/O-heavy
		} else {
			bd, err := r.Cost.EpochBreakdown(tr, h, sys)
			if err != nil {
				return EpochStats{}, err
			}
			duration, err = r.Cost.EpochDuration(tr, h, sys)
			if err != nil {
				return EpochStats{}, err
			}
			computeFrac = bd.ComputeFraction()
		}
		duration = costmodel.WithLoad(duration, load)
		clock += duration

		var profile perf.Profile
		if obs != nil {
			phase := perf.PhaseTrain
			if init {
				phase = perf.PhaseInit
			}
			var err error
			profile, err = r.Sampler.EpochProfile(perfRng, tr, h, sys, phase, duration)
			if err != nil {
				return EpochStats{}, err
			}
		}
		series, err := r.Power.Series(powerRng, sys, computeFrac, duration)
		if err != nil {
			return EpochStats{}, err
		}
		joules := energy.Integrate(series)

		s := EpochStats{
			Epoch:     epoch,
			Init:      init,
			Sys:       sys,
			Duration:  duration,
			EndTime:   clock,
			TrainLoss: trainLoss,
			Accuracy:  acc,
			EnergyJ:   joules,
		}
		res.Epochs = append(res.Epochs, s)
		res.EnergyJ += joules
		s.Profile = profile
		return s, nil
	}

	// Init phase (Figure 2's "Init." column).
	if _, err := runPhase(0, true, 0, 0); err != nil {
		return nil, fmt.Errorf("trainer: init phase: %w", err)
	}

	for epoch := 1; epoch <= h.Epochs; epoch++ {
		p := pts[epoch-1]
		s, err := runPhase(epoch, false, p.Loss, p.Acc)
		if err != nil {
			return nil, fmt.Errorf("trainer: epoch %d: %w", epoch, err)
		}
		res.Accuracy = p.Acc

		if obs != nil {
			if next := obs.OnEpochEnd(seed, w, h, s); next != nil {
				if err := next.Validate(); err != nil {
					return nil, fmt.Errorf("trainer: observer returned invalid config: %w", err)
				}
				sys = *next
			}
		}
	}
	res.FinalSys = sys
	res.Duration = clock
	return res, nil
}

// PredictDuration estimates a full trial duration without training — used
// by schedulers that need service-time estimates (multi-tenancy traces).
func (r *Runner) PredictDuration(w workload.Workload, h params.Hyper, sys params.SysConfig) (float64, error) {
	d, err := r.Cost.TrialDuration(workload.TraitsFor(w), h, sys)
	if err != nil {
		return 0, err
	}
	load := r.Load
	if load < 1 {
		load = 1
	}
	return costmodel.WithLoad(d, load), nil
}
