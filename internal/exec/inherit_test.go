package exec_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pipetune/internal/cluster"
	"pipetune/internal/core"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func newRunner() *tune.Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
	return tune.NewRunner(tr, cluster.Paper())
}

func jobJSON(t *testing.T, res *tune.JobResult, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// runDroppingOne runs a PipeTune job on store over the remote plane. A
// capacity-1 worker computes trials until the first one drop picks,
// whose stream closes once its epoch `epochs` is answered; then
// afterDrop runs and a healthy worker finishes the job. It returns the
// JobResult's bytes and the plane.
func runDroppingOne(t *testing.T, spec tune.JobSpec, store gt.Store, drop func(exec.Assignment) bool, epochs int, afterDrop func()) (string, *exec.Remote) {
	t.Helper()
	r := exec.NewRemote(exec.RemoteConfig{HeartbeatInterval: time.Second, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	runner := newRunner()
	runner.Exec = r
	pt := core.New(runner)
	pt.GT = store
	type outcome struct {
		res *tune.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := pt.RunJob(spec)
		done <- outcome{res, err}
	}()

	exec.DropOnTrial(t, srv.URL, drop, epochs)
	afterDrop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := exec.NewAgent(exec.AgentConfig{Server: srv.URL, Name: "healthy", Capacity: 2})
	go func() { _ = healthy.Run(ctx) }()

	select {
	case out := <-done:
		return jobJSON(t, out.res, out.err), r
	case <-time.After(60 * time.Second):
		t.Fatal("job never completed after its worker died")
		return "", nil
	}
}

// TestRequeuedPromotedTrialMatchesLocal runs one cold PipeTune HyperBand
// job twice — on exec.Local, and over the remote plane where the first
// promoted trial (it starts on what its previous rung handed down, not on
// the base configuration) loses its worker after two streamed epochs and
// is requeued. The replacement replays those epochs from the lease's log
// and the controller continues: the two JobResults are the same bytes.
func TestRequeuedPromotedTrialMatchesLocal(t *testing.T) {
	h := params.DefaultHyper()
	h.Epochs = 9 // HyperBand(9, 3): rungs of 1, 3 and 9 epochs
	spec := tune.JobSpec{
		Workload:  workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
		Objective: tune.MaximizeAccuracy,
		HyperSpace: params.Space{
			{Name: params.KeyBatchSize, Values: []float64{32, 64, 256, 1024}},
			{Name: params.KeyLearningRate, Values: []float64{0.005, 0.01, 0.05}},
		},
		BaseHyper: h,
		BaseSys:   params.DefaultSysConfig(),
		Seed:      5,
	}
	res, err := core.New(newRunner()).RunJob(spec)
	want := jobJSON(t, res, err)

	got, r := runDroppingOne(t, spec, gt.NewMemory(gt.DefaultConfig()), func(a exec.Assignment) bool {
		return a.Sys != spec.BaseSys && a.Hyper.Epochs > 2
	}, 2, func() {})
	if got != want {
		t.Fatal("remote JobResult with a requeued promoted trial differs from exec.Local's")
	}
	if fs := r.Fleet(); fs.RequeuedTrials != 1 {
		t.Fatalf("%d requeued trials, want the dropped one", fs.RequeuedTrials)
	}
}

// flipStore is a ground truth that misses until answer is set, and counts
// the questions it is asked.
type flipStore struct {
	gt.Store
	mu      sync.Mutex
	answer  *params.SysConfig
	lookups int
}

func (s *flipStore) Lookup([]float64) (params.SysConfig, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	if s.answer == nil {
		return params.SysConfig{}, false
	}
	return *s.answer, true
}

// TestRequeuedBlankTrialKeepsItsFirstAnswer: a blank trial asks the
// ground truth after its profile epoch, and then its worker dies. The
// store changes its answer meanwhile, as it does when a concurrent job
// adds to it. The replacement attempt replays the profile epoch from the
// lease's log: the store is asked once, the trial follows the answer its
// first attempt got, and the JobResult is the bytes of an undisturbed run.
func TestRequeuedBlankTrialKeepsItsFirstAnswer(t *testing.T) {
	h := params.DefaultHyper()
	h.Epochs = 4
	spec := tune.JobSpec{
		Workload:   workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
		Objective:  tune.MaximizeAccuracy,
		HyperSpace: params.Space{{Name: params.KeyBatchSize, Values: []float64{64}}},
		BaseHyper:  h,
		BaseSys:    params.DefaultSysConfig(),
		Seed:       3,
		Searcher: func(space params.Space, _ *xrand.Source) (search.Searcher, error) {
			return search.NewGrid(space, 1, 1) // one trial
		},
	}
	newStore := func() *flipStore { return &flipStore{Store: gt.NewMemory(gt.DefaultConfig())} }
	undisturbed := newStore()
	pt := core.New(newRunner())
	pt.GT = undisturbed
	res, err := pt.RunJob(spec)
	want := jobJSON(t, res, err)
	if undisturbed.lookups != 1 {
		t.Fatalf("undisturbed run asked the store %d times, want 1", undisturbed.lookups)
	}

	store := newStore()
	got, r := runDroppingOne(t, spec, store, func(exec.Assignment) bool { return true }, 1, func() {
		store.mu.Lock()
		store.answer = &params.SysConfig{Cores: 16, MemoryGB: 32} // never probed in 4 epochs
		store.mu.Unlock()
	})
	if fs := r.Fleet(); fs.RequeuedTrials != 1 {
		t.Fatalf("%d requeued trials, want the dropped one", fs.RequeuedTrials)
	}
	store.mu.Lock()
	lookups := store.lookups
	store.mu.Unlock()
	if lookups != 1 {
		t.Fatalf("the store was asked %d times, want once: the replay asked again", lookups)
	}
	if got != want {
		t.Fatal("remote JobResult with a requeued blank trial differs from the undisturbed run's")
	}
}
