package tune

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// This file is the execution-plane parity suite: the pre-refactor trial
// execution path — runTrial and the inline goroutine-pool runBatch that
// lived in Runner before internal/exec was carved out — is preserved
// below VERBATIM as legacyRunTrial/legacyRunBatch/legacyRunJob, and
// every workload of the Table 3 catalog must produce a bit-identical
// JobResult (JSON serialisation compared byte for byte) on the new
// exec.Local backend. Trials are placed FIFO, the paper's order, across
// the whole catalog. The job-dispatch "fair" policy lives a layer up
// (internal/admission); its parity guarantee is pinned by the service
// suite (TestFIFOParitySchedule and the remote-backend equality tests).

// legacyRunTrial is the pre-refactor Runner.runTrial, verbatim.
func legacyRunTrial(r *Runner, spec JobSpec, sug search.Suggestion) (TrialRecord, error) {
	h := sug.Assignment.ApplyHyper(spec.BaseHyper)
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
		if !r.Cluster.Fits(sys) {
			return TrialRecord{}, fmt.Errorf("tune: trial config %v does not fit the cluster", sys)
		}
	}
	var obs trainer.EpochObserver
	if spec.TrialObserver != nil {
		obs, sys = spec.TrialObserver(sug.ID, h, sys)
	}
	trialSeed := spec.Seed ^ (uint64(sug.ID)+1)*0x9e3779b97f4a7c15
	result, err := r.Trainer.Run(spec.Workload, h, sys, trialSeed, obs)
	if err != nil {
		return TrialRecord{}, fmt.Errorf("tune: trial %d: %w", sug.ID, err)
	}
	return TrialRecord{
		ID:         sug.ID,
		Assignment: sug.Assignment.Clone(),
		Hyper:      h,
		StartSys:   sys,
		BudgetFrac: sug.BudgetFrac,
		Result:     result,
		Score:      spec.Objective.Score(result),
	}, nil
}

// legacyRunBatch is the pre-refactor Runner.runBatch, verbatim: the
// bounded in-process goroutine pool.
func legacyRunBatch(r *Runner, ctx context.Context, spec JobSpec, batch []search.Suggestion, workers int) ([]TrialRecord, error) {
	records := make([]TrialRecord, len(batch))
	errs := make([]error, len(batch))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, sug := range batch {
		i, sug := i, sug
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("tune: job cancelled: %w", err)
				return
			}
			records[i], errs[i] = legacyRunTrial(r, spec, sug)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return records, err
		}
	}
	return records, nil
}

// legacyRunJob is the pre-refactor RunJobCtx event loop wired to
// legacyRunBatch — the complete pre-exec execution path.
func legacyRunJob(r *Runner, spec JobSpec) (*JobResult, error) {
	ctx := context.Background()
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
		records, err := legacyRunBatch(r, ctx, spec, batch, slots)
		if err != nil {
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
	res.TuningTime = eng.Now()
	return res, nil
}

// parityRunner builds a fast runner over the paper cluster.
func parityRunner() *Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
	return NewRunner(tr, cluster.Paper())
}

// paritySpec is the standard catalog job, small enough to sweep.
func paritySpec(w workload.Workload, mode Mode, seed uint64) JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 3
	obj := MaximizeAccuracy
	if mode == ModeV2 {
		obj = MaximizeAccuracyPerTime
	}
	return JobSpec{
		Workload:  w,
		Mode:      mode,
		Objective: obj,
		HyperSpace: params.Space{
			{Name: params.KeyBatchSize, Values: []float64{32, 256, 1024}},
			{Name: params.KeyLearningRate, Values: []float64{0.005, 0.05}},
		},
		SystemSpace: params.Space{
			{Name: params.KeyCores, Values: []float64{4, 16}},
			{Name: params.KeyMemoryGB, Values: []float64{8, 32}},
		},
		BaseHyper: h,
		BaseSys:   params.DefaultSysConfig(),
		Seed:      seed,
	}
}

// mustJSON renders a JobResult for byte comparison.
func mustJSON(t *testing.T, res *JobResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// probeObserver is a stateful per-trial epoch observer standing in for
// PipeTune's controller: epoch 1 switches to the probe config, epoch 2
// settles back. It exercises the TrialObserver plumbing (and the resize
// events it produces) without importing internal/core.
type probeObserver struct {
	mu     sync.Mutex
	epochs map[int]int
}

func (p *probeObserver) observerFor(trialID int, _ params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
	return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		p.mu.Lock()
		p.epochs[trialID]++
		n := p.epochs[trialID]
		p.mu.Unlock()
		switch n {
		case 1:
			return &params.SysConfig{Cores: 16, MemoryGB: 32}
		case 2:
			return &params.SysConfig{Cores: 8, MemoryGB: 8}
		default:
			return nil
		}
	}), sys
}

// TestLocalBackendParityCatalog sweeps the Table 3 catalog under the
// default FIFO policy: the exec.Local path must reproduce the
// pre-refactor inline pool bit for bit.
func TestLocalBackendParityCatalog(t *testing.T) {
	catalog := workload.Catalog()
	if testing.Short() {
		catalog = catalog[:2]
	}
	for _, w := range catalog {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			spec := paritySpec(w, ModeV1, 42)
			want, err := legacyRunJob(parityRunner(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parityRunner().RunJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Fatalf("%s: exec.Local JobResult diverges from the pre-refactor path", w.Name())
			}
		})
	}
}

// TestLocalBackendParityPoliciesAndModes spot-checks the non-default
// axes: ModeV2 (system space folded in) and the TrialObserver path
// (mid-trial system switches driving scheduler resizes).
func TestLocalBackendParityPoliciesAndModes(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}

	cases := []struct {
		name string
		spec func() JobSpec
	}{
		{"v2-fifo", func() JobSpec { return paritySpec(w, ModeV2, 7) }},
		{"v1-observed", func() JobSpec {
			s := paritySpec(w, ModeV1, 7)
			obs := &probeObserver{epochs: make(map[int]int)}
			s.TrialObserver = obs.observerFor
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := legacyRunJob(parityRunner(), tc.spec())
			if err != nil {
				t.Fatal(err)
			}
			got, err := parityRunner().RunJob(tc.spec())
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Fatalf("%s: exec.Local JobResult diverges from the pre-refactor path", tc.name)
			}
		})
	}
}

// TestExplicitLocalBackendIsDefault pins that a Runner with Exec unset
// and one with an explicit exec.NewLocal produce identical results —
// the nil default is not a third code path.
func TestExplicitLocalBackendIsDefault(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	spec := paritySpec(w, ModeV1, 11)
	implicit, err := parityRunner().RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := parityRunner()
	r.Exec = exec.NewLocal(r.Trainer)
	explicit, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, implicit) != mustJSON(t, explicit) {
		t.Fatal("explicit exec.Local diverges from the nil default")
	}
}

// TestParityProgressOrdering sanity-checks the reference itself: the
// progress curve must be sorted by simulated completion time in both
// paths (a scrambled reference would make the byte comparison
// meaningless).
func TestParityProgressOrdering(t *testing.T) {
	spec := paritySpec(workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}, ModeV1, 42)
	res, err := parityRunner().RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Progress, func(i, j int) bool {
		return res.Progress[i].Time < res.Progress[j].Time
	}) {
		t.Fatal("progress curve not in completion-time order")
	}
}
