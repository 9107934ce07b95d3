package tune

import (
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// mkRecord fabricates a finished trial with the given footprint/duration.
func mkRecord(id int, sys params.SysConfig, duration float64) TrialRecord {
	return TrialRecord{
		ID:       id,
		StartSys: sys,
		Result: &trainer.Result{
			Workload: workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
			Duration: duration,
		},
	}
}

// uniformNodes lists n nodes of cores and mem each.
func uniformNodes(n, cores, mem int) []cluster.NodeSpec {
	out := make([]cluster.NodeSpec, n)
	for i := range out {
		out[i] = cluster.NodeSpec{Cores: cores, MemoryGB: mem}
	}
	return out
}

func TestScheduleBatchFullyParallelWhenFits(t *testing.T) {
	ns := uniformNodes(2, 16, 32)
	records := []TrialRecord{
		mkRecord(0, params.SysConfig{Cores: 8, MemoryGB: 8}, 100),
		mkRecord(1, params.SysConfig{Cores: 8, MemoryGB: 8}, 100),
		mkRecord(2, params.SysConfig{Cores: 8, MemoryGB: 8}, 100),
		mkRecord(3, params.SysConfig{Cores: 8, MemoryGB: 8}, 100),
	}
	end, err := scheduleBatch(records, ns, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Fatalf("4 trials on 2x(16c/32GB) should run fully parallel: makespan %v, want 100", end)
	}
	for _, rec := range records {
		if rec.Start != 0 {
			t.Fatalf("trial %d delayed to %v", rec.ID, rec.Start)
		}
	}
}

func TestScheduleBatchOversizedTrialsSerialise(t *testing.T) {
	// One node, 16 cores: two 16-core trials must run back to back even
	// though slot count would allow both.
	ns := uniformNodes(1, 16, 32)
	records := []TrialRecord{
		mkRecord(0, params.SysConfig{Cores: 16, MemoryGB: 16}, 100),
		mkRecord(1, params.SysConfig{Cores: 16, MemoryGB: 16}, 100),
	}
	end, err := scheduleBatch(records, ns, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if end != 200 {
		t.Fatalf("two full-node trials makespan = %v, want 200", end)
	}
	if records[1].Start != 100 {
		t.Fatalf("second trial started at %v, want 100", records[1].Start)
	}
}

func TestScheduleBatchMixedFootprints(t *testing.T) {
	// A big trial and two small ones on one 16-core node: the big one
	// occupies the node; the small ones co-run after it.
	ns := uniformNodes(1, 16, 32)
	records := []TrialRecord{
		mkRecord(0, params.SysConfig{Cores: 16, MemoryGB: 16}, 50),
		mkRecord(1, params.SysConfig{Cores: 8, MemoryGB: 8}, 60),
		mkRecord(2, params.SysConfig{Cores: 8, MemoryGB: 8}, 60),
	}
	end, err := scheduleBatch(records, ns, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if records[1].Start != 50 || records[2].Start != 50 {
		t.Fatalf("small trials should start when the big one ends: %v, %v",
			records[1].Start, records[2].Start)
	}
	if end != 110 {
		t.Fatalf("makespan = %v, want 110", end)
	}
}

func TestScheduleBatchRespectsSlotCap(t *testing.T) {
	// Plenty of resources but only 1 slot: strictly serial.
	ns := uniformNodes(4, 32, 64)
	records := []TrialRecord{
		mkRecord(0, params.SysConfig{Cores: 4, MemoryGB: 4}, 10),
		mkRecord(1, params.SysConfig{Cores: 4, MemoryGB: 4}, 10),
		mkRecord(2, params.SysConfig{Cores: 4, MemoryGB: 4}, 10),
	}
	end, err := scheduleBatch(records, ns, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 {
		t.Fatalf("single-slot makespan = %v, want 30", end)
	}
}

func TestScheduleBatchStartsFromClock(t *testing.T) {
	ns := uniformNodes(1, 16, 32)
	records := []TrialRecord{mkRecord(0, params.SysConfig{Cores: 8, MemoryGB: 8}, 10)}
	end, err := scheduleBatch(records, ns, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if records[0].Start != 500 || end != 510 {
		t.Fatalf("batch did not start at the job clock: start %v end %v", records[0].Start, end)
	}
}

func TestScheduleBatchUnfittableConfig(t *testing.T) {
	ns := uniformNodes(1, 8, 16)
	records := []TrialRecord{mkRecord(0, params.SysConfig{Cores: 16, MemoryGB: 8}, 10)}
	if _, err := scheduleBatch(records, ns, 0, 4); err == nil {
		t.Fatal("unfittable trial accepted")
	}
}
