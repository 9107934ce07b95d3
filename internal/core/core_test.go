package core

import (
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

var (
	lenetMNIST = workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	cnnNews    = workload.Workload{Model: workload.CNN, Dataset: workload.News20}
)

// featuresOf produces a realistic profile feature vector for a workload.
func featuresOf(t *testing.T, w workload.Workload, seed uint64) []float64 {
	t.Helper()
	s := perf.NewSampler()
	p, err := s.EpochProfile(xrand.New(seed), workload.TraitsFor(w),
		params.DefaultHyper(), params.DefaultSysConfig(), perf.PhaseTrain, 30)
	if err != nil {
		t.Fatal(err)
	}
	return p.Features()
}

func makeEpoch(epoch int, sys params.SysConfig, duration, energy float64, profile perf.Profile) trainer.EpochStats {
	return trainer.EpochStats{
		Epoch:    epoch,
		Sys:      sys,
		Duration: duration,
		EnergyJ:  energy,
		Profile:  profile,
	}
}

func sampleProfile(t *testing.T, w workload.Workload) perf.Profile {
	t.Helper()
	s := perf.NewSampler()
	p, err := s.EpochProfile(xrand.New(7), workload.TraitsFor(w),
		params.DefaultHyper(), params.DefaultSysConfig(), perf.PhaseTrain, 30)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestControllerProbesThenSettles(t *testing.T) {
	db := gt.NewMemory(gt.DefaultConfig())
	ctrl := NewController(db)
	ctrl.Probes = []params.SysConfig{
		{Cores: 4, MemoryGB: 8},
		{Cores: 16, MemoryGB: 8},
	}
	obs, _ := ctrl.ObserverFor(1, params.DefaultHyper(), params.DefaultSysConfig())
	profile := sampleProfile(t, lenetMNIST)
	base := params.DefaultSysConfig()

	// Epoch 1 (profiling, on base): DB empty -> probe 1 next.
	next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(1, base, 100, 1000, profile))
	if next == nil || *next != ctrl.Probes[0] {
		t.Fatalf("after profiling epoch got %v, want first probe", next)
	}
	// Epoch 2 measured probe 1 (fast) -> probe 2 next.
	next = obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(2, ctrl.Probes[0], 60, 700, profile))
	if next == nil || *next != ctrl.Probes[1] {
		t.Fatalf("after first probe got %v, want second probe", next)
	}
	// Epoch 3 measured probe 2 (slow) -> settle on probe 1 (shortest).
	next = obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(3, ctrl.Probes[1], 150, 2000, profile))
	if next == nil || *next != ctrl.Probes[0] {
		t.Fatalf("settled on %v, want fastest probe %v", next, ctrl.Probes[0])
	}
	// Epoch 4: applied, no further changes.
	if next = obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(4, ctrl.Probes[0], 60, 700, profile)); next != nil {
		t.Fatalf("applied phase still changing config: %v", next)
	}

	// Finishing feeds the ground truth.
	ctrl.Finish(1, nil)
	if n := db.Info().Entries; n != 1 {
		t.Fatalf("ground truth has %d entries after finish, want 1", n)
	}
}

func TestControllerGroundTruthHitSkipsProbing(t *testing.T) {
	db := gt.NewMemory(gt.DefaultConfig())
	known := params.SysConfig{Cores: 4, MemoryGB: 32}
	for i := 0; i < 4; i++ {
		_ = db.Add(gt.Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: known, Metric: 50})
		_ = db.Add(gt.Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 16, MemoryGB: 8}, Metric: 70})
	}
	ctrl := NewController(db)
	obs, _ := ctrl.ObserverFor(9, params.DefaultHyper(), params.DefaultSysConfig())
	profile := sampleProfile(t, lenetMNIST)
	next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(),
		makeEpoch(1, params.DefaultSysConfig(), 100, 1000, profile))
	if next == nil || *next != known {
		t.Fatalf("hit did not apply known config: got %v, want %v", next, known)
	}
	// Subsequent epochs stay put.
	if nxt := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(2, known, 50, 500, profile)); nxt != nil {
		t.Fatalf("config changed after ground-truth application: %v", nxt)
	}
	if hits := db.Info().Hits; hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

func TestControllerFallsBackWhenGroundTruthRegresses(t *testing.T) {
	db := gt.NewMemory(gt.DefaultConfig())
	badConfig := params.SysConfig{Cores: 16, MemoryGB: 4}
	for i := 0; i < 4; i++ {
		_ = db.Add(gt.Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: badConfig, Metric: 10})
		_ = db.Add(gt.Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 4, MemoryGB: 8}, Metric: 10})
	}
	ctrl := NewController(db)
	ctrl.Probes = []params.SysConfig{{Cores: 4, MemoryGB: 8}}
	obs, _ := ctrl.ObserverFor(1, params.DefaultHyper(), params.DefaultSysConfig())
	profile := sampleProfile(t, lenetMNIST)
	base := params.DefaultSysConfig()

	// Epoch 1: GT hit applies the (bad) config.
	next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(1, base, 100, 1000, profile))
	if next == nil || *next != badConfig {
		t.Fatalf("expected GT config applied, got %v", next)
	}
	// Epoch 2 measured the applied config 50%% slower than baseline: the
	// validation guard must resume probing instead of accepting it.
	next = obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(2, badConfig, 150, 2000, profile))
	if next == nil || *next != ctrl.Probes[0] {
		t.Fatalf("guard did not fall back to probing: got %v", next)
	}
	// Epoch 3 measured the probe as fastest: settle on it.
	next = obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(3, ctrl.Probes[0], 60, 500, profile))
	if next == nil || *next != ctrl.Probes[0] {
		t.Fatalf("did not settle on the measured best: got %v", next)
	}
}

func TestControllerKeepsGroundTruthConfigWhenItHolds(t *testing.T) {
	db := gt.NewMemory(gt.DefaultConfig())
	good := params.SysConfig{Cores: 4, MemoryGB: 8}
	for i := 0; i < 4; i++ {
		_ = db.Add(gt.Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: good, Metric: 10})
		_ = db.Add(gt.Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 16, MemoryGB: 32}, Metric: 10})
	}
	ctrl := NewController(db)
	obs, _ := ctrl.ObserverFor(1, params.DefaultHyper(), params.DefaultSysConfig())
	profile := sampleProfile(t, lenetMNIST)
	obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(1, params.DefaultSysConfig(), 100, 1000, profile))
	// Applied config measures faster: guard stays quiet.
	if next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(2, good, 80, 800, profile)); next != nil {
		t.Fatalf("guard fired on an improving config: %v", next)
	}
	if next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(3, good, 80, 800, profile)); next != nil {
		t.Fatalf("config changed after validation: %v", next)
	}
}

func TestControllerMaxProbeEpochs(t *testing.T) {
	db := gt.NewMemory(gt.DefaultConfig())
	ctrl := NewController(db)
	ctrl.MaxProbeEpochs = 1
	profile := sampleProfile(t, lenetMNIST)
	obs, _ := ctrl.ObserverFor(1, params.DefaultHyper(), params.DefaultSysConfig())
	base := params.DefaultSysConfig()

	obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(1, base, 100, 1000, profile))
	// Only one probe epoch allowed; the very next callback settles.
	next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(2, ctrl.Probes[0], 40, 400, profile))
	if next == nil {
		t.Fatal("controller kept probing past MaxProbeEpochs")
	}
	if *next != ctrl.Probes[0] {
		t.Fatalf("settled on %v, want measured fastest %v", *next, ctrl.Probes[0])
	}
}

// --- End-to-end: PipeTune vs the baselines on a small job. ---

func smallJob(w workload.Workload, seed uint64) tune.JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 6
	return tune.JobSpec{
		Workload:  w,
		Mode:      tune.ModeV1,
		Objective: tune.MaximizeAccuracy,
		HyperSpace: params.Space{
			{Name: params.KeyBatchSize, Values: []float64{32, 256}},
			{Name: params.KeyLearningRate, Values: []float64{0.01, 0.05}},
		},
		SystemSpace: params.Space{
			{Name: params.KeyCores, Values: []float64{4, 8, 16}},
			{Name: params.KeyMemoryGB, Values: []float64{8, 32}},
		},
		BaseHyper: h,
		BaseSys:   params.DefaultSysConfig(),
		Seed:      seed,
		Searcher: func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewGrid(space, 4, 0)
		},
	}
}

func testTuneRunner() *tune.Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 256, TestSize: 96}
	return tune.NewRunner(tr, cluster.Paper())
}

func TestPipeTuneReducesTuningTimeVsV1(t *testing.T) {
	runner := testTuneRunner()
	v1, err := runner.RunJob(smallJob(lenetMNIST, 42))
	if err != nil {
		t.Fatal(err)
	}

	pt := New(testTuneRunner())
	if err := pt.Bootstrap(workload.Catalog(), 99); err != nil {
		t.Fatal(err)
	}
	ptRes, err := pt.RunJob(smallJob(lenetMNIST, 42))
	if err != nil {
		t.Fatal(err)
	}

	if ptRes.TuningTime >= v1.TuningTime {
		t.Fatalf("PipeTune tuning %v s not below V1 %v s", ptRes.TuningTime, v1.TuningTime)
	}
	// §7.3: accuracy "on par" with V1 — identical hyper search here, and
	// system changes must not affect learning at all.
	if ptRes.Best.Result.Accuracy < v1.Best.Result.Accuracy-0.02 {
		t.Fatalf("PipeTune accuracy %v fell below V1 %v", ptRes.Best.Result.Accuracy, v1.Best.Result.Accuracy)
	}
	if pt.GT.Info().Hits == 0 {
		t.Fatal("warm-started PipeTune never hit the ground truth")
	}
}

func TestPipeTuneColdStartStillCompletes(t *testing.T) {
	pt := New(testTuneRunner())
	res, err := pt.RunJob(smallJob(lenetMNIST, 13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best trial")
	}
	// Cold start must populate the ground truth for future jobs.
	if pt.GT.Info().Entries == 0 {
		t.Fatal("cold-start job did not grow the ground truth")
	}
}

func TestPipeTuneForcesV1Semantics(t *testing.T) {
	pt := New(testTuneRunner())
	spec := smallJob(lenetMNIST, 5)
	spec.Mode = tune.ModeV2 // must be overridden to V1
	res, err := pt.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trials {
		if rec.StartSys != spec.BaseSys {
			t.Fatalf("PipeTune trial started at %v, want base %v", rec.StartSys, spec.BaseSys)
		}
	}
}

func TestPipeTuneNotWired(t *testing.T) {
	var pt PipeTune
	if _, err := pt.RunJob(tune.JobSpec{}); err == nil {
		t.Fatal("unwired PipeTune accepted a job")
	}
	if err := pt.Bootstrap(nil, 1); err == nil {
		t.Fatal("unwired PipeTune accepted bootstrap")
	}
}

func TestPipeTuneReconfiguresThroughScheduler(t *testing.T) {
	// Cold-start PipeTune probes configurations epoch by epoch, so its
	// trials must re-negotiate their cluster allocation mid-flight — the
	// scheduler records those as granted/denied resizes on each record.
	pt := New(testTuneRunner())
	res, err := pt.RunJob(smallJob(lenetMNIST, 13))
	if err != nil {
		t.Fatal(err)
	}
	reconfigs := 0
	for _, rec := range res.Trials {
		reconfigs += rec.Resizes + rec.ResizesDenied
	}
	if reconfigs == 0 {
		t.Fatal("probing trials never reconfigured their allocation")
	}
}

// countingPolicy is a placement policy that counts the engine's Pick calls.
type countingPolicy struct {
	sched.Policy
	picks int
}

func (p *countingPolicy) Pick(ctx *sched.PickContext) int {
	p.picks++
	return p.Policy.Pick(ctx)
}

// TestPipeTunePolicyForwarded: the Runner's policy is the one placement
// setting — a baseline job and a PipeTune job on the same runner are both
// placed by it.
func TestPipeTunePolicyForwarded(t *testing.T) {
	runner := testTuneRunner()
	policy := &countingPolicy{Policy: sched.SJF()}
	runner.Policy = policy
	if _, err := runner.RunJob(smallJob(lenetMNIST, 13)); err != nil {
		t.Fatal(err)
	}
	baseline := policy.picks
	if baseline == 0 {
		t.Fatal("the baseline job was not placed by the runner's policy")
	}
	if _, err := New(runner).RunJob(smallJob(lenetMNIST, 13)); err != nil {
		t.Fatal(err)
	}
	if policy.picks == baseline {
		t.Fatal("the PipeTune job was not placed by the runner's policy")
	}
}
