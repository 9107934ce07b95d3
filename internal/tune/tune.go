// Package tune is the hyperparameter-tuning library substrate (the paper
// builds on Ray Tune, §6): it runs HPT jobs — collections of training
// trials proposed by a search algorithm — against the trainer, under a
// user-chosen objective function.
//
// Two baseline modes reproduce §4 and §7.1.5:
//
//   - V1: hyperparameters only, objective = maximise accuracy; every trial
//     runs with the same default system configuration.
//   - V2: "system as hyperparameters" — the system space is concatenated
//     into the search space and the objective becomes accuracy/duration.
//
// PipeTune plugs in through two extension points: a per-trial factory
// that is told the trial's hyperparameters and answers with its
// trainer.EpochObserver and the system configuration it starts on (system
// tuning inside the trial, carried over from the configuration's earlier
// trials), and a trial-completion hook (feeding the ground-truth database).
//
// Job execution is event-driven: trials flow through the internal/sched
// discrete-event scheduler, each admitted the moment its system footprint
// fits the cluster (under the Runner's placement policy) and reported to
// the searcher the instant it completes — there is no batch barrier. Trials
// whose epoch log shows a mid-trial system reconfiguration (PipeTune's
// pipelined tuning) re-negotiate their cluster allocation at the matching
// simulated instant.
//
// Trial bodies execute through a pluggable exec.Backend — by default the
// local in-process pool, optionally a remote worker fleet — and all
// reported times are simulated seconds derived from the cost model, so
// results are deterministic regardless of goroutine interleaving and of
// which backend computed them.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pipetune/internal/cluster"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Objective is the score a job maximises.
type Objective int

// Objectives from §5.1: maximum accuracy, or maximum accuracy with minimum
// training time (expressed as the accuracy/duration ratio, §4).
const (
	MaximizeAccuracy Objective = iota + 1
	MaximizeAccuracyPerTime
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaximizeAccuracy:
		return "accuracy"
	case MaximizeAccuracyPerTime:
		return "accuracy/time"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Score evaluates a finished trial under the objective; higher is better.
func (o Objective) Score(res *trainer.Result) float64 {
	switch o {
	case MaximizeAccuracyPerTime:
		// Normalise by epoch count where known: HyperBand runs trials at
		// different budgets, and a one-epoch trial must not beat a full
		// trial merely by being short. The denominator is therefore the
		// per-epoch duration (in kiloseconds, keeping scores O(accuracy)).
		dur := res.Duration
		if n := len(res.Epochs) - 1; n > 0 {
			dur = res.Duration / float64(n)
		}
		if dur <= 0 {
			return 0
		}
		return res.Accuracy / (dur / 1000)
	default:
		return res.Accuracy
	}
}

// Mode selects the baseline behaviour.
type Mode int

// Modes.
const (
	ModeV1 Mode = iota + 1 // hyper only, fixed default system parameters
	ModeV2                 // hyper + system parameters in one search space
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeV1:
		return "tune-v1"
	case ModeV2:
		return "tune-v2"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SearcherFactory builds the search algorithm for a job. The default
// factory builds HyperBand, the paper's choice.
type SearcherFactory func(space params.Space, r *xrand.Source) (search.Searcher, error)

// JobSpec describes one HPT job (Figure 6's "hyperparameter tuning input").
// Where its trials are placed is not part of the job: every job's trials
// are placed first come, first served (package sched).
type JobSpec struct {
	Workload    workload.Workload
	Mode        Mode
	Objective   Objective
	HyperSpace  params.Space
	SystemSpace params.Space // consulted only in ModeV2
	BaseHyper   params.Hyper
	BaseSys     params.SysConfig
	Seed        uint64
	// MaxParallel bounds concurrent trials; 0 derives it from the cluster
	// capacity under BaseSys.
	MaxParallel int
	Searcher    SearcherFactory

	// TrialObserver, when set, is asked once per trial, while its batch is
	// built, for the trial's epoch observer and the system configuration
	// its first epoch runs on (this is PipeTune's hook; nil for the
	// baselines). h is the trial's applied hyperparameters, rung budget
	// included, and sys the configuration it would start on unobserved.
	// The answer becomes TrialRecord.StartSys: what the trial body starts
	// on and the footprint the scheduler admits. The observer sees each
	// epoch of its trial once, on every backend: one that re-runs a body
	// (a requeued remote lease) answers the replayed epochs itself.
	TrialObserver func(trialID int, h params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig)
	// OnTrialDone, when set, is called as each trial completes, in
	// simulated completion order (PipeTune's ground-truth feeder). When a
	// job is cancelled, trials of the interrupted batch that had already
	// finished computing are still delivered — in suggestion order, since
	// no schedule exists for them — so their knowledge is not lost.
	//
	// The hook runs synchronously inside the scheduling event loop, so a
	// slow hook delays every waiting trial's dispatch. PipeTune's feeder
	// is not cheap under the daemon with a persisted ground truth: each
	// Add there is a gt.Persistent WAL append plus an fsync, paid here,
	// one per trial. Taking that off the loop is ROADMAP item 2.
	OnTrialDone func(trialID int, res *trainer.Result)
}

// TrialRecord is one evaluated trial.
type TrialRecord struct {
	ID         int               `json:"id"`
	Assignment params.Assignment `json:"assignment"`
	Hyper      params.Hyper      `json:"hyper"`
	StartSys   params.SysConfig  `json:"startSys"`
	BudgetFrac float64           `json:"budgetFrac"`
	Result     *trainer.Result   `json:"result"`
	Score      float64           `json:"score"`
	// Start/End are simulated wall-clock seconds within the tuning job.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Resizes/ResizesDenied count the trial's mid-flight allocation
	// re-negotiations (granted and refused) — PipeTune's §5.6 dynamic
	// reconfiguration as seen by the scheduler. Always zero for baselines,
	// whose system configuration is fixed for the whole trial.
	Resizes       int `json:"resizes,omitempty"`
	ResizesDenied int `json:"resizesDenied,omitempty"`
}

// ProgressPoint supports the convergence plots (Figures 9 and 10): the
// state of the search when a trial completes.
type ProgressPoint struct {
	Time          float64 `json:"time"`          // simulated wall clock
	BestAccuracy  float64 `json:"bestAccuracy"`  // best accuracy so far
	TrialDuration float64 `json:"trialDuration"` // duration of the finishing trial
}

// JobResult is a finished HPT job (Figure 6's output: trained model +
// optimal parameters).
type JobResult struct {
	Spec        JobSpec         `json:"-"`
	Trials      []TrialRecord   `json:"trials"`
	Best        *TrialRecord    `json:"best"`
	TuningTime  float64         `json:"tuningTime"`  // simulated makespan
	TotalEnergy float64         `json:"totalEnergy"` // joules across all trials
	Progress    []ProgressPoint `json:"progress"`
}

// Clone deep-copies the record: the assignment map and trainer result are
// duplicated, so mutating the copy never reaches the original.
func (t TrialRecord) Clone() TrialRecord {
	if t.Assignment != nil { // preserve nil-ness for bit-identical JSON
		t.Assignment = t.Assignment.Clone()
	}
	t.Result = t.Result.Clone()
	return t
}

// Clone returns a deep copy of the result. Registries that retain results
// while handing them to API callers use it so no caller can mutate shared
// state (Spec is copied shallowly: it is configuration, excluded from the
// wire format, and treated as immutable after submission).
func (r *JobResult) Clone() *JobResult {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Trials != nil { // preserve nil-ness for bit-identical JSON
		cp.Trials = make([]TrialRecord, len(r.Trials))
		for i, t := range r.Trials {
			cp.Trials[i] = t.Clone()
		}
	}
	if r.Best != nil {
		b := r.Best.Clone()
		cp.Best = &b
	}
	cp.Progress = append([]ProgressPoint(nil), r.Progress...)
	return &cp
}

// Runner executes HPT jobs. A batch's trial bodies compute with as much
// real parallelism as the job has simulated slots.
type Runner struct {
	Trainer *trainer.Runner
	Cluster *cluster.Cluster
	// Exec is the execution backend trial bodies run on; nil means the
	// local in-process pool over Trainer (the pre-refactor behaviour,
	// bit-identical). The pipetuned daemon swaps in exec.Remote to fan
	// trials out to a pipetune-worker fleet.
	Exec exec.Backend
}

// backend resolves the execution backend, defaulting to local.
func (r *Runner) backend() exec.Backend {
	if r.Exec != nil {
		return r.Exec
	}
	return exec.NewLocal(r.Trainer)
}

// NewRunner wires a runner to a trainer and cluster.
func NewRunner(t *trainer.Runner, c *cluster.Cluster) *Runner {
	return &Runner{Trainer: t, Cluster: c}
}

// budgetIterations maps a space-size growth ratio to HyperBand bracket
// iterations: sqrt scaling, clamped to [1, 4].
func budgetIterations(ratio int) int {
	if ratio <= 1 {
		return 1
	}
	it := int(math.Sqrt(float64(ratio)) + 0.5)
	if it < 1 {
		it = 1
	}
	if it > 4 {
		it = 4
	}
	return it
}

// slotCount derives the simulated parallelism: how many BaseSys-sized
// trials the empty cluster holds side by side, bounded by spec.MaxParallel.
func (r *Runner) slotCount(spec JobSpec) (int, error) {
	if !r.Cluster.Fits(spec.BaseSys) {
		return 0, fmt.Errorf("tune: base config %v does not fit any node", spec.BaseSys)
	}
	slots := r.Cluster.Slots(spec.BaseSys)
	if spec.MaxParallel > 0 && spec.MaxParallel < slots {
		slots = spec.MaxParallel
	}
	if slots < 1 {
		slots = 1
	}
	return slots, nil
}

// prepare validates the spec and constructs the job machinery shared by the
// event-driven and barrier execution paths.
func (r *Runner) prepare(spec JobSpec) (searcher search.Searcher, slots int, err error) {
	if r.Trainer == nil || r.Cluster == nil {
		return nil, 0, errors.New("tune: runner not wired")
	}
	if spec.Mode != ModeV1 && spec.Mode != ModeV2 {
		return nil, 0, fmt.Errorf("tune: invalid mode %v", spec.Mode)
	}
	if spec.Objective != MaximizeAccuracy && spec.Objective != MaximizeAccuracyPerTime {
		return nil, 0, fmt.Errorf("tune: invalid objective %v", spec.Objective)
	}
	if err := spec.BaseHyper.Validate(); err != nil {
		return nil, 0, fmt.Errorf("tune: %w", err)
	}
	if err := spec.BaseSys.Validate(); err != nil {
		return nil, 0, fmt.Errorf("tune: %w", err)
	}
	space := spec.HyperSpace
	if spec.Mode == ModeV2 {
		space = params.Concat(spec.HyperSpace, spec.SystemSpace)
	}
	if err := space.Validate(); err != nil {
		return nil, 0, fmt.Errorf("tune: %w", err)
	}
	factory := spec.Searcher
	if factory == nil {
		// The default sample budget tracks the search space: folding the
		// system parameters into the search (V2) multiplies the space by
		// the system grid's size, so the HyperBand bracket structure is
		// repeated ~sqrt(ratio) times to keep per-dimension coverage
		// comparable — the mechanism behind the paper's observation that
		// V2 lengthens tuning (§7.3 reason 1).
		iterations := 1
		if spec.Mode == ModeV2 {
			iterations = budgetIterations(spec.SystemSpace.Size())
		}
		factory = func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewHyperBandIterations(space, 9, 3, iterations, r)
		}
	}
	rng := xrand.New(spec.Seed)
	searcher, err = factory(space, rng.Split())
	if err != nil {
		return nil, 0, fmt.Errorf("tune: build searcher: %w", err)
	}
	slots, err = r.slotCount(spec)
	if err != nil {
		return nil, 0, err
	}
	return searcher, slots, nil
}

// resizeEvents converts a trial's epoch log into scheduler resize events:
// one for every epoch boundary at which the epoch observer switched the
// system configuration. Baseline trials run every epoch on StartSys and
// produce none; PipeTune trials re-negotiate their allocation as probing
// and settling proceed — the paper's §5.6 dynamic reconfiguration expressed
// as scheduler events rather than only re-priced in the cost model.
func resizeEvents(res *trainer.Result) []sched.Resize {
	if len(res.Epochs) == 0 {
		return nil
	}
	var out []sched.Resize
	cur := res.Epochs[0].Sys
	for _, ep := range res.Epochs[1:] {
		if ep.Sys != cur {
			out = append(out, sched.Resize{Offset: ep.EndTime - ep.Duration, Sys: ep.Sys})
			cur = ep.Sys
		}
	}
	return out
}

// trialSeed derives a trial's deterministic seed from the job seed and
// trial ID (splitmix-style odd-constant mixing).
func trialSeed(jobSeed uint64, id int) uint64 {
	return jobSeed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
}

// RunJob executes the HPT job to completion on the event-driven scheduler:
// every trial is admitted the moment its footprint fits the cluster under
// the placement policy, and the searcher observes each result at the
// trial's simulated completion instant. The searcher is asked for more work
// as soon as all outstanding suggestions have reported (incremental
// Observe), so search algorithms that can promote early do; with the
// default FIFO policy the schedule — and therefore TuningTime and Best —
// is identical to the legacy barrier scheduler's.
func (r *Runner) RunJob(spec JobSpec) (*JobResult, error) {
	return r.RunJobCtx(context.Background(), spec)
}

// RunJobCtx is RunJob with cancellation: the context is checked before
// every searcher batch and before every trial body, so a cancelled job
// stops within one trial's real compute time. Cancellation surfaces as an
// error satisfying errors.Is(err, ctx.Err()); the job's partial results
// are discarded — a tuning job is only meaningful complete.
func (r *Runner) RunJobCtx(ctx context.Context, spec JobSpec) (*JobResult, error) {
	searcher, slots, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	eng := sched.New(r.Cluster.SchedPool(), nil, slots)
	res := &JobResult{Spec: spec}
	outstanding := 0
	bestAcc := 0.0
	var loopErr error

	var submit func(batch []search.Suggestion)
	complete := func(rec *TrialRecord) {
		res.Trials = append(res.Trials, *rec)
		res.TotalEnergy += rec.Result.EnergyJ
		searcher.Observe([]search.Report{{ID: rec.ID, Score: rec.Score}})
		if spec.OnTrialDone != nil {
			spec.OnTrialDone(rec.ID, rec.Result)
		}
		// Ties resolve to the lower trial ID — the same winner the barrier
		// scheduler's in-order scan selects.
		if res.Best == nil || rec.Score > res.Best.Score ||
			(rec.Score == res.Best.Score && rec.ID < res.Best.ID) {
			cp := *rec
			res.Best = &cp
		}
		if rec.Result.Accuracy > bestAcc {
			bestAcc = rec.Result.Accuracy
		}
		res.Progress = append(res.Progress, ProgressPoint{
			Time:          rec.End,
			BestAccuracy:  bestAcc,
			TrialDuration: rec.Result.Duration,
		})
		outstanding--
		if outstanding == 0 && loopErr == nil {
			if next := searcher.Next(); len(next) > 0 {
				submit(next)
			}
		}
	}
	submit = func(batch []search.Suggestion) {
		if err := ctx.Err(); err != nil {
			loopErr = fmt.Errorf("tune: job cancelled: %w", err)
			eng.Halt()
			return
		}
		records, err := r.runBatch(ctx, spec, batch, slots)
		if err != nil {
			// Trials of this batch that finished before the cancellation
			// landed have paid their full compute; deliver them to
			// OnTrialDone so their knowledge (PipeTune's ground-truth
			// feed) survives even though the job result is discarded.
			// Order is suggestion order here, not simulated completion
			// order — the schedule was never established. ctx.Err()
			// covers both cancel() and deadline expiry.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) && spec.OnTrialDone != nil {
				for i := range records {
					if records[i].Result != nil {
						spec.OnTrialDone(records[i].ID, records[i].Result)
					}
				}
			}
			loopErr = err
			eng.Halt()
			return
		}
		outstanding += len(records)
		for i := range records {
			rec := &records[i]
			task := sched.Task{
				ID:       rec.ID,
				Arrival:  eng.Now(),
				Sys:      rec.StartSys,
				Duration: rec.Result.Duration,
				Resizes:  resizeEvents(rec.Result),
			}
			err := eng.Submit(task, func(_ sched.Task, st sched.TaskStats) {
				rec.Start, rec.End = st.Start, st.End
				rec.Resizes, rec.ResizesDenied = st.ResizesGranted, st.ResizesDenied
				complete(rec)
			})
			if err != nil {
				loopErr = fmt.Errorf("tune: trial %d: %w", rec.ID, err)
				eng.Halt()
				return
			}
		}
	}

	first := searcher.Next()
	if len(first) == 0 {
		return nil, errors.New("tune: searcher proposed no trials")
	}
	submit(first)
	if loopErr != nil {
		return nil, loopErr
	}
	if err := eng.Run(); err != nil && loopErr == nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	if res.Best == nil {
		return nil, errors.New("tune: searcher proposed no trials")
	}
	// The last event the engine ran is the last trial completion.
	res.TuningTime = eng.Now()
	return res, nil
}

// runBatch executes one searcher batch on the execution backend and
// returns the records in suggestion order (deterministic). The tuning
// layer resolves each suggestion into a concrete trial body — applied
// hyperparameters, budget-scaled epochs, per-trial observer and the start
// configuration it asks for, validated system footprint, derived trial
// seed — and the backend only decides where that body computes, at most
// `parallel` at a time (the job's slot count: real parallelism mirrors the
// simulated one). A cancelled context skips trials that have
// not started yet; trials already inside a trainer run to completion (a
// trial body is the cancellation granularity). On error the records
// completed so far are still returned (their Result is non-nil) so the
// caller can salvage their knowledge.
func (r *Runner) runBatch(ctx context.Context, spec JobSpec, batch []search.Suggestion, parallel int) ([]TrialRecord, error) {
	records := make([]TrialRecord, len(batch))
	errs := make([]error, len(batch))
	trials := make([]exec.Trial, 0, len(batch))
	idx := make([]int, 0, len(batch)) // trial position -> record index
	tc := exec.CaptureTrainerConfig(r.Trainer)
	for i, sug := range batch {
		// Cancellation outranks per-trial validation, as it did when the
		// pre-refactor pool checked the context before each trial body: a
		// cancelled job must classify as cancelled even when the batch
		// also contains an unfittable suggestion.
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("tune: job cancelled: %w", err)
			continue
		}
		h := sug.Assignment.ApplyHyper(spec.BaseHyper)
		// HyperBand rungs scale the epoch budget.
		if sug.BudgetFrac > 0 && sug.BudgetFrac < 1 {
			scaled := int(float64(h.Epochs)*sug.BudgetFrac + 0.5)
			if scaled < 1 {
				scaled = 1
			}
			h.Epochs = scaled
		}
		sys := spec.BaseSys
		if spec.Mode == ModeV2 {
			sys = sug.Assignment.ApplySys(spec.BaseSys)
		}
		var obs trainer.EpochObserver
		if spec.TrialObserver != nil {
			obs, sys = spec.TrialObserver(sug.ID, h, sys)
		}
		if !r.Cluster.Fits(sys) {
			errs[i] = fmt.Errorf("tune: trial config %v does not fit the cluster", sys)
			continue
		}
		records[i] = TrialRecord{
			ID:         sug.ID,
			Assignment: sug.Assignment.Clone(),
			Hyper:      h,
			StartSys:   sys,
			BudgetFrac: sug.BudgetFrac,
		}
		trials = append(trials, exec.Trial{
			ID:       sug.ID,
			Workload: spec.Workload,
			Hyper:    h,
			Sys:      sys,
			Seed:     trialSeed(spec.Seed, sug.ID),
			Observer: obs,
			Trainer:  tc,
		})
		idx = append(idx, i)
	}
	results, runErrs := r.backend().Run(ctx, trials, parallel)
	for k, i := range idx {
		if err := runErrs[k]; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				errs[i] = fmt.Errorf("tune: job cancelled: %w", err)
			} else {
				errs[i] = fmt.Errorf("tune: trial %d: %w", records[i].ID, err)
			}
			records[i] = TrialRecord{} // failed trials leave no partial record
			continue
		}
		records[i].Result = results[k]
		records[i].Score = spec.Objective.Score(results[k])
	}
	for _, err := range errs {
		if err != nil {
			return records, err
		}
	}
	return records, nil
}
