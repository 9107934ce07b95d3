package pipetune

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

var errNoBest = errors.New("job completed without a best trial")

func fastSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	base := []Option{WithSeed(42), WithCorpusSize(128, 64)}
	s, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fastSpec(s *System, w Workload) JobSpec {
	spec := s.JobSpec(w)
	spec.BaseHyper.Epochs = 4
	spec.HyperSpace = Space{
		{Name: "batch_size", Values: []float64{32, 256}},
		{Name: "learning_rate", Values: []float64{0.01, 0.05}},
	}
	return spec
}

func TestFacadeEndToEnd(t *testing.T) {
	s := fastSystem(t)
	w := Workload{Model: LeNet5, Dataset: MNIST}
	if err := s.Bootstrap(WorkloadsOfType(TypeI)); err != nil {
		t.Fatal(err)
	}
	spec := fastSpec(s, w)

	base, err := s.RunBaseline(spec)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := s.RunPipeTune(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pt.TuningTime >= base.TuningTime {
		t.Fatalf("PipeTune tuning %v not below baseline %v", pt.TuningTime, base.TuningTime)
	}
	info := s.GroundTruth().Info()
	if info.Entries == 0 {
		t.Fatal("ground truth empty after bootstrap")
	}
	if info.Hits == 0 {
		t.Fatal("no ground-truth hits")
	}
}

// TestRecurringSpecsStayTiny is the regression guard for what the trial
// cache retains: the end-to-end benchmark's recurring working set — the
// Table 3 catalog under two job seeds, each as tune-v1 and PipeTune — is
// 220 distinct training prefixes (44 per network: the three Rodinia
// kernels train one classifier and share theirs), and holding all of them
// costs well under 256 KiB because an entry is a key and a 16 B/epoch
// trajectory.
func TestRecurringSpecsStayTiny(t *testing.T) {
	s := fastSystem(t, WithCorpusSize(64, 32), WithTrialCache(0))
	for _, w := range Catalog() {
		for seed := uint64(1); seed <= 2; seed++ {
			spec := s.JobSpec(w)
			spec.Seed = seed
			if _, err := s.RunBaseline(spec); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunPipeTune(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.trainer.Cache.Stats()
	if st.Entries != 220 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 220 resident prefixes and no evictions", st)
	}
	if st.Bytes >= 256<<10 {
		t.Fatalf("220 prefixes account %d bytes, want < 256 KiB", st.Bytes)
	}
	if st.TrajectoryHits == 0 {
		t.Fatalf("PipeTune twins replayed nothing: %+v", st)
	}
}

func TestFacadeConcurrentRuns(t *testing.T) {
	// One System, many tenants: concurrent RunPipeTune calls over the
	// shared ground-truth database must all complete (the pipetuned
	// service depends on this guarantee).
	s := fastSystem(t)
	workloads := []Workload{
		{Model: LeNet5, Dataset: MNIST},
		{Model: CNN, Dataset: MNIST},
		{Model: LeNet5, Dataset: FashionMNIST},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(workloads))
	for i, w := range workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.RunPipeTune(fastSpec(s, w))
			if err == nil && res.Best == nil {
				err = errNoBest
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent job %d (%s): %v", i, workloads[i].Name(), err)
		}
	}
	if s.GroundTruth().Info().Entries == 0 {
		t.Fatal("concurrent jobs fed nothing into the shared ground truth")
	}
}

func TestFacadeV2Mode(t *testing.T) {
	s := fastSystem(t)
	spec := fastSpec(s, Workload{Model: LeNet5, Dataset: MNIST})
	spec.Mode = ModeV2
	spec.Objective = MaximizeAccuracyPerTime
	spec.SystemSpace = Space{{Name: "cores", Values: []float64{4, 8}}}
	res, err := s.RunBaseline(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best trial")
	}
}

func TestFacadeCatalog(t *testing.T) {
	if len(Catalog()) != 7 {
		t.Fatalf("catalog has %d workloads", len(Catalog()))
	}
	if len(WorkloadsOfType(TypeIII)) != 3 {
		t.Fatal("Type-III filter broken")
	}
	if DefaultHyper().BatchSize != 32 {
		t.Fatal("unexpected default batch size")
	}
	if PaperHyperSpace().Size() == 0 || PaperSystemSpace().Size() == 0 {
		t.Fatal("paper spaces empty")
	}
}

// TestFacadeScheduler: the facade places trials first come, first
// served, so no trial starts before one the searcher submitted ahead of
// it (trial IDs follow submission order). 32-core trials leave fewer
// slots than a rung has trials, so several wait at once.
func TestFacadeScheduler(t *testing.T) {
	s := fastSystem(t)
	spec := fastSpec(s, Workload{Model: LeNet5, Dataset: MNIST})
	spec.BaseSys.Cores = 32
	res, err := s.RunBaseline(spec)
	if err != nil {
		t.Fatal(err)
	}
	trials := slices.Clone(res.Trials)
	slices.SortFunc(trials, func(a, b TrialRecord) int { return a.ID - b.ID })
	for i := 1; i < len(trials); i++ {
		if trials[i].Start < trials[i-1].Start {
			t.Fatalf("trial %d started at %v, before trial %d submitted ahead of it (%v)",
				trials[i].ID, trials[i].Start, trials[i-1].ID, trials[i-1].Start)
		}
	}
}

func TestFacadePredictDuration(t *testing.T) {
	s := fastSystem(t)
	d, err := s.PredictTrialDuration(Workload{Model: LeNet5, Dataset: MNIST}, DefaultHyper(), DefaultSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("predicted duration %v", d)
	}
}
