package tune

import (
	"encoding/json"
	"sort"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

var lenetMNIST = workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}

// smallSpace keeps test jobs fast: 2 dimensions, 4 points.
func smallSpace() params.Space {
	return params.Space{
		{Name: params.KeyBatchSize, Values: []float64{32, 256}},
		{Name: params.KeyLearningRate, Values: []float64{0.01, 0.05}},
	}
}

func testRunner() *Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 256, TestSize: 96}
	return NewRunner(tr, cluster.Paper())
}

func baseSpec(mode Mode, obj Objective) JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 2
	return JobSpec{
		Workload:    lenetMNIST,
		Mode:        mode,
		Objective:   obj,
		HyperSpace:  smallSpace(),
		SystemSpace: params.Space{{Name: params.KeyCores, Values: []float64{4, 8}}},
		BaseHyper:   h,
		BaseSys:     params.DefaultSysConfig(),
		Seed:        42,
		Searcher: func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewGrid(space, 0, 0)
		},
	}
}

func TestRunJobV1GridCoversSpace(t *testing.T) {
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("ran %d trials, want 4", len(res.Trials))
	}
	if res.Best == nil || res.Best.Result == nil {
		t.Fatal("no best trial")
	}
	// V1 fixes the system configuration.
	for _, rec := range res.Trials {
		if rec.StartSys != spec.BaseSys {
			t.Fatalf("V1 trial ran at %v, want base %v", rec.StartSys, spec.BaseSys)
		}
	}
	if res.TuningTime <= 0 {
		t.Fatal("no tuning time")
	}
	if res.TotalEnergy <= 0 {
		t.Fatal("no energy")
	}
}

func TestRunJobV2VariesSystem(t *testing.T) {
	r := testRunner()
	spec := baseSpec(ModeV2, MaximizeAccuracyPerTime)
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 8 { // 4 hyper points x 2 core values
		t.Fatalf("ran %d trials, want 8", len(res.Trials))
	}
	seenCores := make(map[int]bool)
	for _, rec := range res.Trials {
		seenCores[rec.StartSys.Cores] = true
	}
	if !seenCores[4] || !seenCores[8] {
		t.Fatalf("V2 did not vary cores: %v", seenCores)
	}
}

func TestBestMaximisesObjective(t *testing.T) {
	r := testRunner()
	res, err := r.RunJob(baseSpec(ModeV1, MaximizeAccuracy))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trials {
		if rec.Score > res.Best.Score {
			t.Fatalf("trial %d score %v beats best %v", rec.ID, rec.Score, res.Best.Score)
		}
	}
}

func TestObjectiveScores(t *testing.T) {
	fast := &trainer.Result{Accuracy: 0.8, Duration: 100}
	slow := &trainer.Result{Accuracy: 0.9, Duration: 10000}
	if MaximizeAccuracy.Score(slow) <= MaximizeAccuracy.Score(fast) {
		t.Fatal("accuracy objective must prefer higher accuracy")
	}
	if MaximizeAccuracyPerTime.Score(fast) <= MaximizeAccuracyPerTime.Score(slow) {
		t.Fatal("accuracy/time objective must prefer the much faster trial")
	}
	if MaximizeAccuracyPerTime.Score(&trainer.Result{Accuracy: 1, Duration: 0}) != 0 {
		t.Fatal("zero duration must score 0, not Inf")
	}
}

func TestProgressCurveMonotone(t *testing.T) {
	r := testRunner()
	res, err := r.RunJob(baseSpec(ModeV1, MaximizeAccuracy))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Progress) != len(res.Trials) {
		t.Fatalf("progress has %d points, want %d", len(res.Progress), len(res.Trials))
	}
	for i := 1; i < len(res.Progress); i++ {
		if res.Progress[i].Time < res.Progress[i-1].Time {
			t.Fatal("progress times not sorted")
		}
		if res.Progress[i].BestAccuracy < res.Progress[i-1].BestAccuracy {
			t.Fatal("best-accuracy curve decreased")
		}
	}
}

func TestMakespanRespectsParallelism(t *testing.T) {
	r := testRunner()
	serial := baseSpec(ModeV1, MaximizeAccuracy)
	serial.MaxParallel = 1
	sres, err := r.RunJob(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := baseSpec(ModeV1, MaximizeAccuracy)
	parallel.MaxParallel = 4
	pres, err := r.RunJob(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if pres.TuningTime >= sres.TuningTime {
		t.Fatalf("parallel tuning %v not faster than serial %v", pres.TuningTime, sres.TuningTime)
	}
	// Serial makespan must equal the sum of trial durations.
	sum := 0.0
	for _, rec := range sres.Trials {
		sum += rec.Result.Duration
	}
	if diff := sres.TuningTime - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("serial makespan %v != trial-duration sum %v", sres.TuningTime, sum)
	}
	// A placed trial runs to completion: it occupies its whole simulated
	// body from the instant it starts.
	for _, res := range []*JobResult{sres, pres} {
		for _, tr := range res.Trials {
			if tr.End != tr.Start+tr.Result.Duration {
				t.Fatalf("trial %d ran %v..%v, want its whole %vs body from its start", tr.ID, tr.Start, tr.End, tr.Result.Duration)
			}
		}
	}
}

func TestTrialObserverHookInvoked(t *testing.T) {
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	start := params.SysConfig{Cores: 4, MemoryGB: 16}
	target := params.SysConfig{Cores: 16, MemoryGB: 32}
	asked := map[int]params.Hyper{}
	spec.TrialObserver = func(id int, h params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
		if sys != spec.BaseSys {
			t.Errorf("trial %d offered %v as its start, want the base configuration", id, sys)
		}
		asked[id] = h
		return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
			if s.Epoch == 1 {
				cfg := target
				return &cfg
			}
			return nil
		}), start
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trials {
		if asked[rec.ID] != rec.Hyper {
			t.Fatalf("trial %d: hook was told %+v, trial ran %+v", rec.ID, asked[rec.ID], rec.Hyper)
		}
		if rec.StartSys != start || rec.Result.Epochs[1].Sys != start {
			t.Fatalf("trial %d started on %v (first epoch %v), want the hook's %v", rec.ID, rec.StartSys, rec.Result.Epochs[1].Sys, start)
		}
		if rec.Result.FinalSys != target {
			t.Fatalf("observer did not retune trial %d: %v", rec.ID, rec.Result.FinalSys)
		}
	}

	// A start configuration no node can host is refused when the batch is
	// built, as a Tune V2 suggestion's is.
	spec.TrialObserver = func(int, params.Hyper, params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
		return nil, params.SysConfig{Cores: 64, MemoryGB: 8}
	}
	if _, err := r.RunJob(spec); err == nil {
		t.Fatal("a start configuration larger than any node was accepted")
	}
}

func TestOnTrialDoneCompletionOrder(t *testing.T) {
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	var ids []int
	spec.OnTrialDone = func(trialID int, _ *trainer.Result) {
		ids = append(ids, trialID)
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("OnTrialDone called %d times, want 4", len(ids))
	}
	// The hook fires per trial in simulated completion order — the same
	// order the trials appear in res.Trials.
	seen := make(map[int]int)
	for i, rec := range res.Trials {
		if ids[i] != rec.ID {
			t.Fatalf("OnTrialDone order %v diverges from completion order at %d", ids, i)
		}
		seen[rec.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("trial %d reported %d times", id, n)
		}
	}
	for i := 1; i < len(res.Trials); i++ {
		if res.Trials[i].End < res.Trials[i-1].End {
			t.Fatalf("res.Trials not in completion order: %v after %v",
				res.Trials[i].End, res.Trials[i-1].End)
		}
	}
}

func TestRunJobDeterministic(t *testing.T) {
	run := func() *JobResult {
		res, err := testRunner().RunJob(baseSpec(ModeV1, MaximizeAccuracy))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TuningTime != b.TuningTime || a.Best.Score != b.Best.Score || a.TotalEnergy != b.TotalEnergy {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v", a.TuningTime, a.Best.Score, b.TuningTime, b.Best.Score)
	}
}

func TestHyperBandBudgetScalesEpochs(t *testing.T) {
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.BaseHyper.Epochs = 9
	spec.Searcher = func(space params.Space, rng *xrand.Source) (search.Searcher, error) {
		return search.NewHyperBand(space, 9, 3, rng)
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	sawShort, sawFull := false, false
	for _, rec := range res.Trials {
		epochs := len(rec.Result.Epochs) - 1 // minus init
		if rec.BudgetFrac < 1 && epochs < 9 {
			sawShort = true
		}
		if rec.BudgetFrac == 1 && epochs == 9 {
			sawFull = true
		}
	}
	if !sawShort || !sawFull {
		t.Fatalf("hyperband budgets not applied: short=%v full=%v", sawShort, sawFull)
	}
}

func TestValidationErrors(t *testing.T) {
	r := testRunner()
	bad := baseSpec(Mode(0), MaximizeAccuracy)
	if _, err := r.RunJob(bad); err == nil {
		t.Fatal("invalid mode accepted")
	}
	bad = baseSpec(ModeV1, Objective(0))
	if _, err := r.RunJob(bad); err == nil {
		t.Fatal("invalid objective accepted")
	}
	bad = baseSpec(ModeV1, MaximizeAccuracy)
	bad.BaseSys = params.SysConfig{Cores: 64, MemoryGB: 256}
	if _, err := r.RunJob(bad); err == nil {
		t.Fatal("unfittable base config accepted")
	}
	bad = baseSpec(ModeV1, MaximizeAccuracy)
	bad.BaseHyper.BatchSize = 0
	if _, err := r.RunJob(bad); err == nil {
		t.Fatal("invalid base hyper accepted")
	}
	empty := baseSpec(ModeV1, MaximizeAccuracy)
	empty.HyperSpace = params.Space{{Name: "x", Values: nil}}
	if _, err := r.RunJob(empty); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestV2RejectsUnfittableTrialConfig(t *testing.T) {
	r := NewRunner(testRunner().Trainer, cluster.SingleNode()) // 8 cores max
	spec := baseSpec(ModeV2, MaximizeAccuracyPerTime)
	spec.SystemSpace = params.Space{{Name: params.KeyCores, Values: []float64{16}}}
	spec.BaseSys = params.SysConfig{Cores: 4, MemoryGB: 8}
	if _, err := r.RunJob(spec); err == nil {
		t.Fatal("16-core trial on an 8-core node accepted")
	}
}

// TestExplicitLocalBackendIsDefault pins that a Runner with Exec unset
// and one with an explicit exec.NewLocal produce identical results —
// the nil default is not a third code path.
func TestExplicitLocalBackendIsDefault(t *testing.T) {
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.Workload = workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	implicit, err := testRunner().RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	r.Exec = exec.NewLocal(r.Trainer)
	explicit, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("explicit exec.Local diverges from the nil default")
	}
}

// TestParityProgressOrdering holds a ModeV2 job — system space folded in,
// so trials claim differing footprints — to a progress curve in
// simulated completion-time order, as the V1 jobs are held by
// TestProgressCurveMonotone and TestEventSchedulerProgressMonotone.
func TestParityProgressOrdering(t *testing.T) {
	res, err := testRunner().RunJob(baseSpec(ModeV2, MaximizeAccuracyPerTime))
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Progress, func(i, j int) bool {
		return res.Progress[i].Time < res.Progress[j].Time
	}) {
		t.Fatal("progress curve not in completion-time order")
	}
}
