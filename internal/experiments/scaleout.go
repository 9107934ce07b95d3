package experiments

import (
	"fmt"

	"pipetune/internal/cluster"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/workload"
)

// ScaleOutRow is one fleet size's outcome on the scale-out trace.
type ScaleOutRow struct {
	Workers int `json:"workers"`
	Trials  int `json:"trials"`
	// Makespan is the simulated time the fleet needs to drain the trial
	// backlog; Throughput is trials per kilosecond of simulated time.
	Makespan   float64 `json:"makespan"`
	Throughput float64 `json:"throughput"`
	// Speedup is against the single-worker fleet; Efficiency is
	// Speedup/Workers (1.0 = perfectly linear).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// ScaleOutResult is the horizontal-scaling trace of the remote
// execution plane.
type ScaleOutResult struct {
	Trials        int           `json:"trials"`
	PerWorkerSlot int           `json:"perWorkerSlots"`
	Rows          []ScaleOutRow `json:"rows"`
}

// Row returns the N-worker row.
func (r *ScaleOutResult) Row(workers int) (ScaleOutRow, error) {
	for _, row := range r.Rows {
		if row.Workers == workers {
			return row, nil
		}
	}
	return ScaleOutRow{}, fmt.Errorf("experiments: no row for %d workers", workers)
}

// Table renders the trace.
func (r *ScaleOutResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Scale-out: %d-trial backlog on 1/2/4/8 pipetune-worker machines", r.Trials),
		Header: []string{"workers", "makespan [s]", "trials/ks", "speedup", "efficiency"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Workers), f1(row.Makespan),
			fmt.Sprintf("%.2f", row.Throughput), fmt.Sprintf("%.2f", row.Speedup),
			fmt.Sprintf("%.2f", row.Efficiency),
		})
	}
	return t
}

// ScaleOut measures what the pluggable execution plane buys:
// deterministic, footprinted horizontal scaling of trial throughput
// with worker count. A backlog of identical Type-I trials (the
// fleet-of-independent-trials shape PipeTune inherits from Ray Tune,
// §6) arrives at t=0; a fleet of N worker machines — each modelled as
// one 16-core/32GB node holding two half-node trial slots, the
// capacity a `pipetune-worker -capacity 2` process serves — drains it
// under the engine's FIFO placement. Durations come from the cost
// model and nothing is random, so the table reproduces to the bit:
// with a backlog far deeper than any fleet's slot count, N workers
// drain it in 1/N the time — the ~N× trial-throughput claim of the
// remote backend, stated as an exact schedule rather than a wall-clock
// benchmark (cmd/bench's exec.remote_overhead_us prices the real
// asynchronous plane).
func ScaleOut(cfg Config) (*ScaleOutResult, error) {
	const slotsPerWorker = 2
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	h := params.DefaultHyper()
	h.Epochs = cfg.Epochs
	footprint := params.SysConfig{Cores: 8, MemoryGB: 16}
	duration, err := newTrainer(cfg).PredictDuration(w, h, footprint)
	if err != nil {
		return nil, fmt.Errorf("scale out: %w", err)
	}

	// The backlog divides evenly by every fleet's slot count (lcm of
	// 2/4/8/16 slots), so each fleet drains it in full waves and the
	// speedup ratios are exact.
	trials := cfg.MultiTenantJobs * 16
	res := &ScaleOutResult{Trials: trials, PerWorkerSlot: slotsPerWorker}
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		fleet, err := cluster.New(workers, cluster.NodeSpec{Cores: 16, MemoryGB: 32})
		if err != nil {
			return nil, err
		}
		eng := sched.New(fleet.SchedPool(), sched.FIFO(), 0)
		for i := 0; i < trials; i++ {
			if err := eng.Submit(sched.Task{
				ID: i, Arrival: 0, Sys: footprint, Duration: duration,
			}, nil); err != nil {
				return nil, fmt.Errorf("scale out (%d workers): %w", workers, err)
			}
		}
		if err := eng.Run(); err != nil {
			return nil, fmt.Errorf("scale out (%d workers): %w", workers, err)
		}
		makespan := eng.Now()
		row := ScaleOutRow{
			Workers:    workers,
			Trials:     trials,
			Makespan:   makespan,
			Throughput: float64(trials) / (makespan / 1000),
		}
		if base == 0 {
			base = makespan
		}
		row.Speedup = base / makespan
		row.Efficiency = row.Speedup / float64(workers)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
