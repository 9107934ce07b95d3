package tune

import (
	"encoding/json"
	"strings"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// The spot-recovery end-to-end suite. Revocations in this system are
// SIGKILL-free by construction: trials compute first (real SGD) and are
// then placed on the discrete-event timeline, so a simulated revocation
// reshapes a trial's schedule — eviction, outage, checkpoint resume —
// without ever touching its already-computed result. These tests pin that
// contract from the outside: a job on a revocation-riddled spot fleet
// must report exactly the training results, scores and best trial of the
// same job on an undisturbed fleet, while the schedule itself shows real
// interruptions and salvaged epochs.

// spotFleet builds a 2-node single-shape cluster; spot makes both nodes
// revocable at a rate aggressive enough that a small tuning job sees
// several interruptions.
func spotFleet(t *testing.T, spot bool) *cluster.Cluster {
	t.Helper()
	nc := cluster.NodeClass{
		Name:  "m",
		Spec:  cluster.NodeSpec{Cores: 16, MemoryGB: 32},
		Count: 2, HourlyUSD: 0.8,
	}
	if spot {
		nc.Spot = true
		nc.RevocationsPerHour = 20
	}
	c, err := cluster.NewClasses([]cluster.NodeClass{nc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func spotRunner(t *testing.T, spot, cache bool) *Runner {
	t.Helper()
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
	if cache {
		tr.Cache = trainer.NewTrialCache(0)
	}
	return NewRunner(tr, spotFleet(t, spot))
}

// mustJSONResult renders one trial's training result for comparison.
func mustJSONResult(t *testing.T, r *trainer.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertSameSearch checks that two job results agree on everything the
// search produced — per-trial training results, scores, hyperparameters,
// and the winning trial — regardless of how the schedules differ.
func assertSameSearch(t *testing.T, disturbed, base *JobResult) {
	t.Helper()
	if len(disturbed.Trials) != len(base.Trials) {
		t.Fatalf("%d trials vs %d undisturbed", len(disturbed.Trials), len(base.Trials))
	}
	baseline := map[int]*TrialRecord{}
	for i := range base.Trials {
		baseline[base.Trials[i].ID] = &base.Trials[i]
	}
	for i := range disturbed.Trials {
		d := &disturbed.Trials[i]
		b := baseline[d.ID]
		if b == nil {
			t.Fatalf("trial %d missing from the undisturbed run", d.ID)
		}
		if dj, bj := mustJSONResult(t, d.Result), mustJSONResult(t, b.Result); dj != bj || d.Score != b.Score {
			t.Fatalf("trial %d result diverged under revocations:\n%+v\nvs\n%+v", d.ID, d.Result, b.Result)
		}
		if d.Hyper != b.Hyper || d.StartSys != b.StartSys {
			t.Fatalf("trial %d configuration diverged: %+v vs %+v", d.ID, d, b)
		}
	}
	if disturbed.Best.ID != base.Best.ID ||
		disturbed.Best.Result.Accuracy != base.Best.Result.Accuracy {
		t.Fatalf("best trial diverged: %d (%v) vs %d (%v)",
			disturbed.Best.ID, disturbed.Best.Result.Accuracy,
			base.Best.ID, base.Best.Result.Accuracy)
	}
}

// TestSpotRecoveryMatchesUndisturbedRun is the cluster plane's e2e
// acceptance: mid-trial spot revocations must not change any trial's
// outcome, and revoked trials resume from their per-epoch checkpoint,
// retraining strictly fewer epochs than a from-scratch retry.
func TestSpotRecoveryMatchesUndisturbedRun(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	spec := paritySpec(w, ModeV1, 42)

	base, err := spotRunner(t, false, true).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	disturbed, err := spotRunner(t, true, true).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, disturbed, base)

	revocations, salvaged := 0, 0
	for i := range disturbed.Trials {
		d := &disturbed.Trials[i]
		revocations += d.Revocations
		salvaged += d.SalvagedEpochs
		if d.SalvagedEpochs > 0 {
			// The final attempt resumed from a checkpoint: its schedule
			// occupancy must be strictly shorter than full retraining.
			if got := d.End - d.Start; got >= d.Result.Duration {
				t.Fatalf("trial %d salvaged %d epochs yet occupied %vs >= full %vs",
					d.ID, d.SalvagedEpochs, got, d.Result.Duration)
			}
		}
		if d.Revocations > 0 && d.WastedSeconds <= 0 {
			t.Fatalf("trial %d survived %d revocations but wasted no time: %+v", d.ID, d.Revocations, d)
		}
	}
	if revocations == 0 {
		t.Fatal("no trial was revoked; the recovery path went unexercised")
	}
	if salvaged == 0 {
		t.Fatal("no epochs salvaged despite per-epoch checkpoints")
	}

	// The undisturbed fleet must show zero revocation activity.
	for i := range base.Trials {
		if b := &base.Trials[i]; b.Revocations != 0 || b.SalvagedEpochs != 0 || b.WastedSeconds != 0 {
			t.Fatalf("on-demand trial %d reports spot activity: %+v", b.ID, b)
		}
	}
}

// TestSpotScheduleIndependentOfCacheAndBackend: the spot schedule —
// revocations, salvage, cost, every Start/End — is a function of the job
// spec alone. Bodies trained on the runner's own cached trainer, on a
// second cached trainer (what a worker is), or with no cache at all give
// the same JobResult bytes.
func TestSpotScheduleIndependentOfCacheAndBackend(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	spec := paritySpec(w, ModeV1, 42)

	own, err := spotRunner(t, true, true).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	worker := spotRunner(t, true, true)
	worker.Exec = exec.NewLocal(spotRunner(t, true, true).Trainer)
	elsewhere, err := worker.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := spotRunner(t, true, false).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, own)
	if mustJSON(t, elsewhere) != want {
		t.Fatal("bodies on another trainer moved the spot schedule")
	}
	if mustJSON(t, uncached) != want {
		t.Fatal("turning the trial cache off moved the spot schedule")
	}
	revocations, salvaged := 0, 0
	for i := range own.Trials {
		revocations += own.Trials[i].Revocations
		salvaged += own.Trials[i].SalvagedEpochs
	}
	if revocations == 0 || salvaged == 0 {
		t.Fatalf("%d revocations, %d salvaged epochs: the resume path went unexercised", revocations, salvaged)
	}
}

// TestSingleClassClusterParity: a NewClasses cluster with one anonymous
// class is the legacy cluster — JobResult JSON byte-identical to
// cluster.New, with none of the class/spot fields appearing.
func TestSingleClassClusterParity(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	spec := paritySpec(w, ModeV1, 42)

	mk := func(c *cluster.Cluster) *Runner {
		tr := trainer.NewRunner()
		tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
		return NewRunner(tr, c)
	}
	legacy, err := cluster.New(4, cluster.NodeSpec{Cores: 32, MemoryGB: 64})
	if err != nil {
		t.Fatal(err)
	}
	classed, err := cluster.NewClasses([]cluster.NodeClass{
		{Spec: cluster.NodeSpec{Cores: 32, MemoryGB: 64}, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mk(legacy).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mk(classed).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, gotJSON := mustJSON(t, want), mustJSON(t, got)
	if wantJSON != gotJSON {
		t.Fatal("single anonymous class diverges from the legacy cluster")
	}
	for _, key := range []string{`"class"`, `"spot"`, `"revocations"`, `"salvagedEpochs"`, `"wastedSeconds"`, `"costUSD"`} {
		if strings.Contains(wantJSON, key) {
			t.Fatalf("legacy JobResult JSON leaks the new %s field", key)
		}
	}
}
