package tune

import (
	"strings"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// classRunner builds a small-corpus runner over c.
func classRunner(c *cluster.Cluster) *Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
	return NewRunner(tr, c)
}

// TestSingleClassClusterParity: a NewClasses cluster with one anonymous
// class is the legacy cluster — JobResult JSON byte-identical to
// cluster.New, with none of the class fields appearing.
func TestSingleClassClusterParity(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	spec := paritySpec(w, ModeV1, 42)

	legacy, err := cluster.New(4, cluster.NodeSpec{Cores: 32, MemoryGB: 64})
	if err != nil {
		t.Fatal(err)
	}
	classed, err := cluster.NewClasses([]cluster.NodeClass{
		{Spec: cluster.NodeSpec{Cores: 32, MemoryGB: 64}, Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := classRunner(legacy).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := classRunner(classed).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, gotJSON := mustJSON(t, want), mustJSON(t, got)
	if wantJSON != gotJSON {
		t.Fatal("single anonymous class diverges from the legacy cluster")
	}
	for _, key := range []string{`"class"`, `"costUSD"`} {
		if strings.Contains(wantJSON, key) {
			t.Fatalf("legacy JobResult JSON leaks the %s field", key)
		}
	}
}

// TestSpotClassRunsToCompletion: a class's spot flag and quoted
// revocation rate are price data only. A job on a fleet of spot nodes
// quoted at 20 revocations an hour gives the same JobResult bytes as on
// the same nodes bought on demand at the same price: every placed trial
// runs to completion.
func TestSpotClassRunsToCompletion(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	spec := paritySpec(w, ModeV1, 42)
	fleet := func(spot bool) *cluster.Cluster {
		nc := cluster.NodeClass{Name: "m", Spec: cluster.NodeSpec{Cores: 16, MemoryGB: 32}, Count: 2, HourlyUSD: 0.8}
		if spot {
			nc.Spot, nc.RevocationsPerHour = true, 20
		}
		c, err := cluster.NewClasses([]cluster.NodeClass{nc})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	onDemand, err := classRunner(fleet(false)).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	spot, err := classRunner(fleet(true)).RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, spot) != mustJSON(t, onDemand) {
		t.Fatal("the spot flag moved the schedule")
	}
	for _, tr := range spot.Trials {
		if tr.End != tr.Start+tr.Result.Duration {
			t.Fatalf("trial %d ran %v..%v, want its whole %vs body from its start", tr.ID, tr.Start, tr.End, tr.Result.Duration)
		}
	}
}
