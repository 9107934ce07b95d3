package exec_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"pipetune/internal/cluster"
	"pipetune/internal/core"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// TestRequeuedPromotedTrialMatchesLocal runs one cold PipeTune HyperBand
// job twice — on exec.Local, and over the remote plane where the first
// promoted trial (it starts on what its previous rung handed down, not on
// the base configuration) loses its worker after two streamed epochs and
// is requeued. The controller must replay the promoted trial from the
// snapshot it started from: the two JobResults are the same bytes.
func TestRequeuedPromotedTrialMatchesLocal(t *testing.T) {
	newRunner := func() *tune.Runner {
		tr := trainer.NewRunner()
		tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
		return tune.NewRunner(tr, cluster.Paper())
	}
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
	mustJSON := func(res *tune.JobResult, err error) string {
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
	want := mustJSON(core.New(newRunner()).RunJob(spec))

	r := exec.NewRemote(exec.RemoteConfig{HeartbeatInterval: time.Second, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	runner := newRunner()
	runner.Exec = r
	type outcome struct {
		res *tune.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.New(runner).RunJob(spec)
		done <- outcome{res, err}
	}()

	exec.DropOnTrial(t, srv.URL, func(a exec.Assignment) bool {
		return a.Sys != spec.BaseSys && a.Hyper.Epochs > 2
	}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := exec.NewAgent(exec.AgentConfig{Server: srv.URL, Name: "healthy", Capacity: 2})
	go func() { _ = healthy.Run(ctx) }()

	select {
	case out := <-done:
		if got := mustJSON(out.res, out.err); got != want {
			t.Fatal("remote JobResult with a requeued promoted trial differs from exec.Local's")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job never completed after its worker died")
	}
	if fs := r.Fleet(); fs.RequeuedTrials != 1 {
		t.Fatalf("%d requeued trials, want the dropped one", fs.RequeuedTrials)
	}
}
