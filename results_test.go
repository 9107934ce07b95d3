package pipetune

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"pipetune/internal/exec"
)

var update = flag.Bool("update", false, "rewrite testdata/results.json from this run")

// resultsPath holds, per catalog key ("workload|seed", the keys of
// cmd/bench/testdata/golden.json), the SHA-256 of the JobResult JSON of
// each PipeTune pass catalogRuns makes (cold on a ground truth that starts
// empty, warm on what all fourteen taught it), and of one Tune V2 job.
// Tune V1 bytes stay in the bench's file. Every backend and cache setting
// must reproduce these bytes: PipeTune changes where epochs run, never
// what they compute.
const resultsPath = "testdata/results.json"

// resultRow is one key's digests.
type resultRow struct {
	Cold string `json:"cold"`
	Warm string `json:"warm"`
	V2   string `json:"v2,omitempty"`
}

func loadResults(t *testing.T) map[string]resultRow {
	t.Helper()
	var rows map[string]resultRow
	data, err := os.ReadFile(resultsPath)
	if err == nil {
		err = json.Unmarshal(data, &rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestResultsGolden holds the local backend with the trial cache on, the
// benchmark daemon's configuration, to every row of testdata/results.json;
// TestResultsUncached and TestResultsRemote hold the other configurations
// to a prefix of it. `go test . -update` rewrites the file and fails
// naming each key and column that moved, so a re-record is never silent.
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the catalog at the daemon's default corpus size")
	}
	pass, err := catalogRuns()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]resultRow{}
	for _, run := range pass.runs {
		got[run.key] = resultRow{Cold: resultDigest(t, run.cold), Warm: resultDigest(t, run.warm)}
	}
	// Tune V2 runs after the warm pass, so nothing above moves. It folds
	// the system parameters into the search, as a tune-v2 daemon job does.
	const v2Key = "lenet/mnist|1"
	s := pass.sys
	spec := s.JobSpec(Workload{Model: LeNet5, Dataset: MNIST})
	spec.Seed = 1
	spec.Mode = ModeV2
	spec.Objective = MaximizeAccuracyPerTime
	v2, err := s.RunBaseline(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := got[v2Key]
	row.V2 = resultDigest(t, v2)
	got[v2Key] = row
	// The file's bytes are those of replayed trials: the PipeTune passes
	// retrain none of the Tune V1 prefixes.
	if st := s.trainer.Cache.Stats(); st.TrajectoryHits+st.FlightHits == 0 || st.EpochsSaved == 0 {
		t.Errorf("the cached catalog pass replayed nothing: %+v", st)
	}

	want := loadResults(t)
	var moved []string
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			moved = append(moved, key+" (missing)")
			continue
		}
		for _, col := range []struct{ name, got, want string }{{"cold", g.Cold, w.Cold}, {"warm", g.Warm, w.Warm}, {"v2", g.V2, w.V2}} {
			if col.got != col.want {
				moved = append(moved, fmt.Sprintf("%s %s", key, col.name))
			}
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			moved = append(moved, key+" (not in the catalog)")
		}
	}
	if len(moved) == 0 {
		return
	}
	slices.Sort(moved)
	if !*update {
		t.Fatalf("%s moved (go test . -update re-records it): %v", resultsPath, moved)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resultsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("rewrote %s: %v", resultsPath, moved)
}

// checkPrefix runs the head of catalog order on s (lenet/mnist job seed 1
// as Tune V1 and then cold PipeTune, job seed 2 as cold PipeTune) and
// holds Tune V1 to the bench's golden and PipeTune to
// testdata/results.json. Tune V1 never touches the ground truth, so each
// cold job reads exactly what catalogRuns' did; the second reads the
// entries the first added.
func checkPrefix(t *testing.T, s *System) {
	t.Helper()
	bench, rows := benchGolden(t), loadResults(t)
	w := Workload{Model: LeNet5, Dataset: MNIST}
	for seed := uint64(1); seed <= 2; seed++ {
		key := fmt.Sprintf("%s|%d", w.Name(), seed)
		spec := s.JobSpec(w)
		spec.Seed = seed
		if seed == 1 {
			v1, err := s.RunBaseline(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(t, v1); got != bench[key].V1Result {
				t.Errorf("%s: Tune V1 JobResult %s, the bench golden holds %s", key, got, bench[key].V1Result)
			}
		}
		cold, err := s.RunPipeTune(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(t, cold); got != rows[key].Cold {
			t.Errorf("%s: cold PipeTune JobResult %s, %s holds %s", key, got, resultsPath, rows[key].Cold)
		}
	}
}

// TestResultsUncached: without the trial cache every epoch runs SGD, and
// the jobs still return the file's bytes.
func TestResultsUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("trains at the daemon's default corpus size")
	}
	s, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, s)
}

// TestResultsRemote runs the same jobs on a worker across the stream: the
// lease grants, epoch frames, the controller's mid-trial system switches
// and the result commits must all leave the file's bytes, since a
// PipeTune JobResult holds every epoch's system configuration. One worker
// takes every trial, so its own trial cache must replay each Tune V1
// prefix for the PipeTune job that follows.
func TestResultsRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("trains at the daemon's default corpus size")
	}
	remote := exec.NewRemote(exec.RemoteConfig{Logf: t.Logf})
	srv := httptest.NewServer(remote.Handler())
	const name = "results-worker"
	// The short beat ships the worker's telemetry promptly for the reuse
	// check below.
	agent := exec.NewAgent(exec.AgentConfig{Server: srv.URL, Name: name, Capacity: 2, Heartbeat: 20 * time.Millisecond})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = agent.Run(t.Context()) // cancelled before the cleanup below runs
	}()
	t.Cleanup(func() {
		<-stopped
		srv.Close()
		remote.Close()
	})

	s, err := benchSystem()
	if err != nil {
		t.Fatal(err)
	}
	s.SetExecBackend(remote)
	checkPrefix(t, s)

	// The worker reports every epoch it returns and observes only the
	// epochs it ran SGD for: fewer of the latter means its cache replayed.
	reg := remote.MetricsRegistry()
	trials := reg.CounterVec("pipetune_worker_trials_total", "", "worker").With(name)
	epochs := reg.CounterVec("pipetune_worker_epochs_total", "", "worker").With(name)
	sgd := reg.DistributionVec("pipetune_worker_train_epoch_seconds", "", "worker").With(name)
	done := uint64(remote.Fleet().CompletedTrials)
	for deadline := time.Now().Add(10 * time.Second); trials.Value() < done; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker telemetry shows %d of %d trials", trials.Value(), done)
		}
	}
	if sgd.Count() >= epochs.Value() {
		t.Fatalf("worker ran SGD for %d of the %d epochs it returned: its cache replayed nothing", sgd.Count(), epochs.Value())
	}
}
