package tune

// The legacy batch-barrier scheduler, kept as the reference RunJob is
// compared against: under FIFO the event loop must reproduce its schedule
// (async_test.go).

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"pipetune/internal/cluster"
	"pipetune/internal/params"
	"pipetune/internal/search"
)

// RunJobBarrier executes the HPT job under the pre-refactor batch-barrier
// model on nodes, which must be the shapes r.Cluster was built from: every
// searcher batch runs to its collective makespan before any result is
// observed. It is the regression reference the event-driven scheduler is
// held to, and no production path runs it.
func (r *Runner) RunJobBarrier(spec JobSpec, nodes []cluster.NodeSpec) (*JobResult, error) {
	searcher, slots, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}

	res := &JobResult{Spec: spec}
	clock := 0.0 // simulated wall clock; batches are barrier-synchronised

	for {
		batch := searcher.Next()
		if len(batch) == 0 {
			break
		}
		records, err := r.runBatch(context.Background(), spec, batch, slots)
		if err != nil {
			return nil, err
		}
		// Simulated resource-aware scheduling of the batch: trials claim
		// their actual footprint (V2's oversized trials therefore reduce
		// effective parallelism, one of the reasons its tuning time grows,
		// §7.3), bounded additionally by the MaxParallel slot count.
		end, err := scheduleBatch(records, nodes, clock, slots)
		if err != nil {
			return nil, err
		}
		clock = end
		reports := make([]search.Report, 0, len(records))
		for i := range records {
			reports = append(reports, search.Report{ID: records[i].ID, Score: records[i].Score})
		}
		searcher.Observe(reports)

		// Fold into the job result, maintaining the progress curve in
		// completion-time order.
		res.Trials = append(res.Trials, records...)
		for i := range records {
			rec := &records[i]
			res.TotalEnergy += rec.Result.EnergyJ
			if spec.OnTrialDone != nil {
				spec.OnTrialDone(rec.ID, rec.Result)
			}
			if res.Best == nil || rec.Score > res.Best.Score {
				cp := *rec
				res.Best = &cp
			}
		}
	}
	if res.Best == nil {
		return nil, errors.New("tune: searcher proposed no trials")
	}
	res.TuningTime = clock

	// Progress curve: trials sorted by simulated completion time.
	done := make([]TrialRecord, len(res.Trials))
	copy(done, res.Trials)
	sort.SliceStable(done, func(i, j int) bool { return done[i].End < done[j].End })
	bestAcc := 0.0
	for _, rec := range done {
		if rec.Result.Accuracy > bestAcc {
			bestAcc = rec.Result.Accuracy
		}
		res.Progress = append(res.Progress, ProgressPoint{
			Time:          rec.End,
			BestAccuracy:  bestAcc,
			TrialDuration: rec.Result.Duration,
		})
	}
	return res, nil
}

// scheduleBatch assigns simulated start/end times to the batch's records
// in ID order against empty nodes: each trial waits until its own system
// footprint fits (FIFO within the batch), with at most `slots` trials in
// flight. It returns the batch makespan end time.
func scheduleBatch(records []TrialRecord, nodes []cluster.NodeSpec, clock float64, slots int) (float64, error) {
	// The reference's own first-fit occupancy model, independent of
	// internal/sched: every node's free cores and memory, in node order.
	free := append([]cluster.NodeSpec(nil), nodes...)
	place := func(sys params.SysConfig) int {
		for n := range free {
			if free[n].Cores >= sys.Cores && free[n].MemoryGB >= sys.MemoryGB {
				free[n].Cores -= sys.Cores
				free[n].MemoryGB -= sys.MemoryGB
				return n
			}
		}
		return -1
	}
	type running struct {
		end  float64
		node int
		sys  params.SysConfig
	}
	var inFlight []running
	now := clock
	finishEarliest := func() {
		// Pop the earliest-finishing trial and free its resources.
		idx := 0
		for i := 1; i < len(inFlight); i++ {
			if inFlight[i].end < inFlight[idx].end {
				idx = i
			}
		}
		if inFlight[idx].end > now {
			now = inFlight[idx].end
		}
		f := inFlight[idx]
		free[f.node].Cores += f.sys.Cores
		free[f.node].MemoryGB += f.sys.MemoryGB
		inFlight = append(inFlight[:idx], inFlight[idx+1:]...)
	}
	for i := range records {
		rec := &records[i]
		for {
			if len(inFlight) < slots {
				if n := place(rec.StartSys); n >= 0 {
					rec.Start = now
					rec.End = now + rec.Result.Duration
					inFlight = append(inFlight, running{end: rec.End, node: n, sys: rec.StartSys})
					break
				}
			}
			if len(inFlight) == 0 {
				return 0, fmt.Errorf("tune: trial %d config %v cannot ever fit", rec.ID, rec.StartSys)
			}
			finishEarliest()
		}
	}
	end := now
	for _, f := range inFlight {
		if f.end > end {
			end = f.end
		}
	}
	return end, nil
}

// paperNodes are the node shapes of cluster.Paper(), the testbed every
// barrier comparison runs on.
var paperNodes = uniformNodes(4, 32, 64)
