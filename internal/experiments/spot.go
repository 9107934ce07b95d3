package experiments

import (
	"fmt"

	"pipetune/internal/cluster"
	"pipetune/internal/sched"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// SpotRow is one fleet's outcome in the spot-savings comparison.
type SpotRow struct {
	Fleet string `json:"fleet"` // "on-demand" or "spot"
	// SpotNodes/OnDemandNodes split the fleet's nodes by market.
	SpotNodes     int `json:"spotNodes"`
	OnDemandNodes int `json:"onDemandNodes"`
	// TuningTime is the job's simulated makespan; CostUSD prices the whole
	// fleet (every node, busy or idle) over that makespan at the classes'
	// hourly rates — the bill an operator actually pays.
	TuningTime float64 `json:"tuningTime"`
	CostUSD    float64 `json:"costUSD"`
	// Revocations counts spot interruptions across the job's trials;
	// SalvagedEpochs the epochs checkpoint resumes spared those trials
	// from retraining; WastedSeconds the node-time the interrupted
	// attempts burned.
	Revocations    int     `json:"revocations,omitempty"`
	SalvagedEpochs int     `json:"salvagedEpochs,omitempty"`
	WastedSeconds  float64 `json:"wastedSeconds,omitempty"`
	// BestAccuracy proves the schedules agree on the search outcome.
	BestAccuracy float64 `json:"bestAccuracy"`
}

// SpotSavingsResult compares one tuning job on an all-on-demand EC2 fleet
// against the same job on a half-spot fleet with checkpointed recovery.
type SpotSavingsResult struct {
	Rows []SpotRow `json:"rows"`
	// Savings is 1 - spot$/onDemand$; TimeInflation spotTime/onDemandTime.
	Savings       float64 `json:"savings"`
	TimeInflation float64 `json:"timeInflation"`
}

// Table renders the comparison.
func (r *SpotSavingsResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Spot savings: %.0f%% cheaper at %.2fx tuning time (checkpointed recovery)",
			r.Savings*100, r.TimeInflation),
		Header: []string{"fleet", "spot/od nodes", "tuning time [s]", "cost [$]", "revocations", "salvaged epochs", "wasted [s]", "best acc"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Fleet, fmt.Sprintf("%d/%d", row.SpotNodes, row.OnDemandNodes),
			f1(row.TuningTime), fmt.Sprintf("%.2f", row.CostUSD),
			fmt.Sprintf("%d", row.Revocations), fmt.Sprintf("%d", row.SalvagedEpochs),
			f1(row.WastedSeconds), fmt.Sprintf("%.3f", row.BestAccuracy),
		})
	}
	return t
}

// spotRevocationsPerHour is the per-node Poisson interruption rate of the
// comparison's spot nodes — aggressive enough that a tuning job's makespan
// sees real revocations, so the checkpointed-recovery path (not luck) is
// what keeps the time inflation bounded.
const spotRevocationsPerHour = 4.0

// SpotSavings runs one V1 tuning job twice on the paper's EC2 shapes —
// two nodes per shape, once all on-demand, once with half of each shape
// bought on the spot market at a 70% discount — under the cost-aware
// `cheapest` placement policy with the trial prefix cache enabled. Spot
// nodes are revoked by a deterministic Poisson process; interrupted
// trials requeue and resume from the last epoch they completed (the
// simulated cluster checkpoints per epoch; the trial cache supplies the
// depth that was actually trained), so the spot fleet pays for some
// retraining and replacement-node outages but never loses a finished
// epoch twice. The result demonstrates the
// heterogeneous cluster plane's economic claim: the spot fleet's bill
// (fleet hourly rate × makespan) is strictly lower while the makespan
// stays within a small inflation factor — and both runs find the same
// best configuration, since revoked trials complete with results
// identical to an undisturbed run.
func SpotSavings(cfg Config) (*SpotSavingsResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	res := &SpotSavingsResult{}

	run := func(name string, spotFraction float64) (SpotRow, error) {
		classes, err := cluster.EC2Fleet(2, spotFraction, spotRevocationsPerHour)
		if err != nil {
			return SpotRow{}, err
		}
		fleet, err := cluster.NewClasses(classes)
		if err != nil {
			return SpotRow{}, err
		}
		tr := newTrainer(cfg)
		// Salvage is bounded by the depth the trial prefix cache holds;
		// without it every revoked attempt would retrain from scratch.
		tr.Cache = trainer.NewTrialCache(0)
		runner := tune.NewRunner(tr, fleet)
		runner.Policy = sched.Cheapest()
		out, err := runner.RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
		if err != nil {
			return SpotRow{}, err
		}
		spot, onDemand := fleet.SpotCounts()
		row := SpotRow{
			Fleet:         name,
			SpotNodes:     spot,
			OnDemandNodes: onDemand,
			TuningTime:    out.TuningTime,
			CostUSD:       fleet.HourlyUSD() * out.TuningTime / 3600,
			BestAccuracy:  out.Best.Result.Accuracy,
		}
		for _, t := range out.Trials {
			row.Revocations += t.Revocations
			row.SalvagedEpochs += t.SalvagedEpochs
			row.WastedSeconds += t.WastedSeconds
		}
		return row, nil
	}

	onDemand, err := run("on-demand", 0)
	if err != nil {
		return nil, fmt.Errorf("spot savings (on-demand): %w", err)
	}
	spot, err := run("spot", 0.5)
	if err != nil {
		return nil, fmt.Errorf("spot savings (spot): %w", err)
	}
	res.Rows = []SpotRow{onDemand, spot}
	res.Savings = 1 - spot.CostUSD/onDemand.CostUSD
	res.TimeInflation = spot.TuningTime / onDemand.TuningTime
	return res, nil
}
