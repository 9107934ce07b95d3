package experiments

import "testing"

// TestScaleOutLinearThroughput pins the acceptance claim: N workers
// drain the footprinted trial backlog ~N× faster, exactly, because the
// trace is a deterministic schedule.
func TestScaleOutLinearThroughput(t *testing.T) {
	res := result[*ScaleOutResult](t, "scale-out")
	one, err := res.row(1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Speedup != 1 || one.Efficiency != 1 {
		t.Fatalf("1-worker baseline speedup %v efficiency %v, want 1", one.Speedup, one.Efficiency)
	}
	for _, workers := range []int{2, 4, 8} {
		row, err := res.row(workers)
		if err != nil {
			t.Fatal(err)
		}
		// The backlog divides evenly into waves, so the speedup is not
		// approximate — it is exactly N.
		if row.Speedup != float64(workers) {
			t.Fatalf("%d workers: speedup %v, want exactly %d", workers, row.Speedup, workers)
		}
		if row.Makespan >= one.Makespan {
			t.Fatalf("%d workers no faster than 1: %v >= %v", workers, row.Makespan, one.Makespan)
		}
	}
}
