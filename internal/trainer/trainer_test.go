package trainer

import (
	"reflect"
	"sync"
	"testing"

	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/workload"
)

var lenetMNIST = workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}

func fastRunner() *Runner {
	r := NewRunner()
	r.Data = dataset.Config{TrainSize: 384, TestSize: 128}
	return r
}

func fastHyper() params.Hyper {
	h := params.DefaultHyper()
	h.Epochs = 3
	h.LearningRate = 0.05
	return h
}

// TestRunProducesEpochs also pins the profile rule: a PMU profile is an
// epoch-boundary observation — an observer sees all 58 events on every
// epoch, and the result the trial returns retains none of them.
func TestRunProducesEpochs(t *testing.T) {
	r := fastRunner()
	h := fastHyper()
	var observed []int
	obs := ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s EpochStats) *params.SysConfig {
		if len(s.Profile) != perf.NumEvents {
			t.Errorf("epoch %d: observer handed a %d-event profile, want %d", s.Epoch, len(s.Profile), perf.NumEvents)
		}
		observed = append(observed, s.Epoch)
		return nil
	})
	res, err := r.Run(lenetMNIST, h, params.DefaultSysConfig(), 1, obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, []int{1, 2, 3}) {
		t.Fatalf("observer saw epochs %v, want [1 2 3]", observed)
	}
	// init + 3 epochs
	if len(res.Epochs) != 4 {
		t.Fatalf("got %d phases, want 4", len(res.Epochs))
	}
	if !res.Epochs[0].Init || res.Epochs[0].Epoch != 0 {
		t.Fatalf("first phase should be init: %+v", res.Epochs[0])
	}
	for i, e := range res.Epochs[1:] {
		if e.Epoch != i+1 || e.Init {
			t.Fatalf("epoch %d malformed: %+v", i+1, e)
		}
		if e.Duration <= 0 || e.EnergyJ <= 0 {
			t.Fatalf("epoch %d has non-positive duration/energy: %+v", e.Epoch, e)
		}
	}
	for _, e := range res.Epochs {
		if e.Profile != nil {
			t.Fatalf("epoch %d: result retains a %d-event profile", e.Epoch, len(e.Profile))
		}
	}
	if res.Accuracy <= 0.2 {
		t.Fatalf("final accuracy %v suspiciously low", res.Accuracy)
	}
	if res.Duration <= 0 {
		t.Fatal("zero total duration")
	}

	// Observing never changes what a trial returns: the profile draws come
	// from a stream nothing else reads.
	unobserved, err := fastRunner().Run(lenetMNIST, h, params.DefaultSysConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, unobserved) {
		t.Fatal("an unobserved trial's result differs from the observed one")
	}
}

// TestCacheHitTrialAllocs is the hard gate on the simulation half: a
// replayed (cache-hit), unobserved trial samples no PMU profile, so what
// it allocates is its prefix key, the result, the RNG streams and one
// power series per phase — not a vector per one-second sample.
func TestCacheHitTrialAllocs(t *testing.T) {
	r := cachedRunner(0)
	h := fastHyper()
	sys := params.DefaultSysConfig()
	run := func() {
		if _, err := r.Run(lenetMNIST, h, sys, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // miss: trains and fills the cache
	if allocs := testing.AllocsPerRun(50, run); allocs > 20 {
		t.Fatalf("cache-hit trial allocates %.0f objects, gate is 20", allocs)
	}
}

func TestRunDeterministic(t *testing.T) {
	r1, r2 := fastRunner(), fastRunner()
	h := fastHyper()
	a, err := r1.Run(lenetMNIST, h, params.DefaultSysConfig(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Run(lenetMNIST, h, params.DefaultSysConfig(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.Duration != b.Duration || a.EnergyJ != b.EnergyJ {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestObserverCanRetuneSystem(t *testing.T) {
	r := fastRunner()
	h := fastHyper()
	h.Epochs = 4
	target := params.SysConfig{Cores: 16, MemoryGB: 16}
	var seen []params.SysConfig
	obs := ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s EpochStats) *params.SysConfig {
		seen = append(seen, s.Sys)
		if s.Epoch == 1 {
			cfg := target
			return &cfg
		}
		return nil
	})
	res, err := r.Run(lenetMNIST, h, params.DefaultSysConfig(), 3, obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSys != target {
		t.Fatalf("final sys = %+v, want %+v", res.FinalSys, target)
	}
	// Epoch 1 ran on the default; epochs 2.. on the target.
	if seen[0] != params.DefaultSysConfig() {
		t.Fatalf("epoch 1 sys = %+v", seen[0])
	}
	if seen[1] != target || seen[2] != target {
		t.Fatalf("post-switch epochs did not adopt target: %+v", seen)
	}
}

// TestSimulationIgnoresLearningRateAndDropout is costmodel.SysKey's
// contract seen from a trial: two observed trials with one seed whose
// hyperparameters differ only in learning rate and dropout train
// differently but are simulated identically — every epoch's duration, end
// time, energy and PMU profile features, through the same mid-trial system
// switches. The controller hands one's system tuning to the other on it.
func TestSimulationIgnoresLearningRateAndDropout(t *testing.T) {
	type sim struct {
		sys                      params.SysConfig
		duration, endTime, joule float64
		features                 []float64
	}
	run := func(h params.Hyper) (*Result, []sim) {
		var seen []sim
		obs := ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s EpochStats) *params.SysConfig {
			seen = append(seen, sim{s.Sys, s.Duration, s.EndTime, s.EnergyJ, s.Profile.Features()})
			if s.Epoch == 1 {
				return &params.SysConfig{Cores: 16, MemoryGB: 8}
			}
			return nil
		})
		res, err := fastRunner().Run(lenetMNIST, h, params.DefaultSysConfig(), 11, obs)
		if err != nil {
			t.Fatal(err)
		}
		return res, seen
	}
	a := fastHyper()
	b := a
	b.LearningRate, b.Dropout = 0.001, 0.5
	resA, simA := run(a)
	resB, simB := run(b)
	if resA.Accuracy == resB.Accuracy && resA.Epochs[1].TrainLoss == resB.Epochs[1].TrainLoss {
		t.Fatal("the pair trained identically: the test compares nothing")
	}
	if len(simA) != len(simB) {
		t.Fatalf("observed %d and %d epochs", len(simA), len(simB))
	}
	for i := range simA {
		if !reflect.DeepEqual(simA[i], simB[i]) {
			t.Fatalf("epoch %d: learning rate and dropout moved its duration, end time, energy or profile", i+1)
		}
	}
	for i := range resA.Epochs {
		ea, eb := resA.Epochs[i], resB.Epochs[i]
		if ea.Sys != eb.Sys || ea.Duration != eb.Duration || ea.EndTime != eb.EndTime || ea.EnergyJ != eb.EnergyJ {
			t.Fatalf("phase %d simulated differently: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestObserverInvalidConfigRejected(t *testing.T) {
	r := fastRunner()
	obs := ObserverFunc(func(uint64, workload.Workload, params.Hyper, EpochStats) *params.SysConfig {
		return &params.SysConfig{Cores: 0, MemoryGB: 0}
	})
	if _, err := r.Run(lenetMNIST, fastHyper(), params.DefaultSysConfig(), 3, obs); err == nil {
		t.Fatal("invalid observer config accepted")
	}
}

func TestEpochDurationRespondsToSystemSwitch(t *testing.T) {
	// Switching from a bad to a good configuration mid-trial must shorten
	// the remaining epochs — the whole point of pipelined tuning.
	r := fastRunner()
	h := fastHyper()
	h.BatchSize = 1024
	h.Epochs = 4
	obs := ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s EpochStats) *params.SysConfig {
		if s.Epoch == 2 {
			return &params.SysConfig{Cores: 8, MemoryGB: 32}
		}
		return nil
	})
	res, err := r.Run(lenetMNIST, h, params.SysConfig{Cores: 4, MemoryGB: 4}, 5, obs)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Epochs[2].Duration // epoch 2, still on 4 cores / starved memory
	after := res.Epochs[3].Duration  // epoch 3, on 8 cores / ample memory
	if after >= before {
		t.Fatalf("8-core/32GB epoch (%v s) not faster than 4-core/4GB (%v s) at batch 1024", after, before)
	}
}

func TestLoadSlowsTrialDown(t *testing.T) {
	r := fastRunner()
	res1, err := r.Run(lenetMNIST, fastHyper(), params.DefaultSysConfig(), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded := fastRunner()
	loaded.Load = 3
	res3, err := loaded.Run(lenetMNIST, fastHyper(), params.DefaultSysConfig(), 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Duration <= 2.9*res1.Duration {
		t.Fatalf("load 3 duration %v not ~3x dedicated %v", res3.Duration, res1.Duration)
	}
	if res3.Accuracy != res1.Accuracy {
		t.Fatal("contention should not change learning outcomes, only time")
	}
}

func TestValidationErrors(t *testing.T) {
	r := fastRunner()
	bad := fastHyper()
	bad.BatchSize = 0
	if _, err := r.Run(lenetMNIST, bad, params.DefaultSysConfig(), 1, nil); err == nil {
		t.Fatal("invalid hyper accepted")
	}
	if _, err := r.Run(lenetMNIST, fastHyper(), params.SysConfig{}, 1, nil); err == nil {
		t.Fatal("invalid sys accepted")
	}
	r.Sampler = nil
	if _, err := r.Run(lenetMNIST, fastHyper(), params.DefaultSysConfig(), 1, nil); err == nil {
		t.Fatal("nil sampler accepted")
	}
}

func TestPredictDuration(t *testing.T) {
	r := fastRunner()
	h := fastHyper()
	d, err := r.PredictDuration(lenetMNIST, h, params.DefaultSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("predicted duration %v", d)
	}
	r.Load = 2
	d2, err := r.PredictDuration(lenetMNIST, h, params.DefaultSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d {
		t.Fatal("load did not raise predicted duration")
	}
}

func TestConcurrentTrialsShareRunner(t *testing.T) {
	r := fastRunner()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := fastHyper()
			if _, err := r.Run(lenetMNIST, h, params.DefaultSysConfig(), seed, nil); err != nil {
				errs <- err
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAccuracyImprovesAcrossEpochs(t *testing.T) {
	r := fastRunner()
	h := fastHyper()
	h.Epochs = 6
	res, err := r.Run(lenetMNIST, h, params.DefaultSysConfig(), 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Epochs[1].Accuracy
	last := res.Epochs[len(res.Epochs)-1].Accuracy
	if last <= first {
		t.Fatalf("accuracy did not improve: epoch1=%v final=%v", first, last)
	}
}
