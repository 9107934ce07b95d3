package experiments

import (
	"context"
	"fmt"

	"pipetune/internal/core"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// SystemName identifies the three compared systems.
const (
	SystemV1       = "Tune V1"
	SystemV2       = "Tune V2"
	SystemPipeTune = "PipeTune"
)

// SingleTenancyRow is one (workload, system) measurement of Figures 11/12:
// model accuracy, training duration of the selected model, tuning duration
// and tuning energy.
type SingleTenancyRow struct {
	Workload     workload.Workload `json:"workload"`
	System       string            `json:"system"`
	AccuracyPct  float64           `json:"accuracyPct"`
	TrainingSecs float64           `json:"trainingSecs"`
	TuningSecs   float64           `json:"tuningSecs"`
	TuningKJ     float64           `json:"tuningKJ"`
	// Epochs says where a PipeTune job's epochs went; nil for the baselines.
	Epochs *core.Counts `json:"epochs,omitempty"`
}

// SingleTenancyResult holds one full figure (11 or 12).
type SingleTenancyResult struct {
	Figure string             `json:"figure"`
	Rows   []SingleTenancyRow `json:"rows"`
}

// row returns the measurement for (workload, system).
func (r *SingleTenancyResult) row(w workload.Workload, system string) (SingleTenancyRow, error) {
	for _, row := range r.Rows {
		if row.Workload == w && row.System == system {
			return row, nil
		}
	}
	return SingleTenancyRow{}, fmt.Errorf("experiments: no row for %s/%s", w.Name(), system)
}

// Figure11 regenerates Figure 11: single-tenancy comparison of Tune V1,
// Tune V2 and PipeTune across the Type-I and Type-II workloads on the
// 4-node cluster — accuracy, training duration, tuning duration, tuning
// energy.
func Figure11(cfg Config) (*SingleTenancyResult, error) {
	return singleTenancy(cfg, "Figure 11", workload.OfType(workload.TypeI, workload.TypeII), false)
}

// Figure12 regenerates Figure 12: the same comparison for the Type-III
// Rodinia workloads (short epochs) on the single-node testbed.
func Figure12(cfg Config) (*SingleTenancyResult, error) {
	return singleTenancy(cfg, "Figure 12", workload.OfType(workload.TypeIII), true)
}

func singleTenancy(cfg Config, figure string, workloads []workload.Workload, onSingleNode bool) (*SingleTenancyResult, error) {
	res := &SingleTenancyResult{Figure: figure}
	mkCluster := paperCluster
	if onSingleNode {
		mkCluster = singleNode
	}

	// PipeTune shares one warm-started ground truth across the whole
	// workload sequence (§7.2).
	pt := core.New(tune.NewRunner(newTrainer(cfg), mkCluster()), cfg.Seed)
	if onSingleNode {
		pt.Probes = singleNodeProbes()
	}
	if err := pt.Bootstrap(workloads, cfg.Seed+1); err != nil {
		return nil, err
	}

	for wi, w := range workloads {
		seed := cfg.Seed + uint64(wi)*17

		v1, err := tune.NewRunner(newTrainer(cfg), mkCluster()).RunJob(jobSpec(cfg, w, tune.ModeV1, seed, onSingleNode))
		if err != nil {
			return nil, fmt.Errorf("%s %s v1: %w", figure, w.Name(), err)
		}
		res.Rows = append(res.Rows, rowFrom(w, SystemV1, v1))

		v2, err := tune.NewRunner(newTrainer(cfg), mkCluster()).RunJob(jobSpec(cfg, w, tune.ModeV2, seed, onSingleNode))
		if err != nil {
			return nil, fmt.Errorf("%s %s v2: %w", figure, w.Name(), err)
		}
		res.Rows = append(res.Rows, rowFrom(w, SystemV2, v2))

		ptRes, counts, err := pt.RunJobCounts(context.Background(), jobSpec(cfg, w, tune.ModeV1, seed, onSingleNode))
		if err != nil {
			return nil, fmt.Errorf("%s %s pipetune: %w", figure, w.Name(), err)
		}
		row := rowFrom(w, SystemPipeTune, ptRes)
		row.Epochs = &counts
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func rowFrom(w workload.Workload, system string, jres *tune.JobResult) SingleTenancyRow {
	return SingleTenancyRow{
		Workload:     w,
		System:       system,
		AccuracyPct:  jres.Best.Result.Accuracy * 100,
		TrainingSecs: jres.Best.Result.Duration,
		TuningSecs:   jres.TuningTime,
		TuningKJ:     jres.TotalEnergy / 1000,
	}
}

// Table renders the figure.
func (r *SingleTenancyResult) Table() *Table {
	t := &Table{
		Title:  r.Figure + ": accuracy, training, tuning and energy per workload and system",
		Header: []string{"workload", "system", "accuracy [%]", "training [s]", "tuning [s]", "energy [kJ]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload.Name(), row.System, f2(row.AccuracyPct),
			f1(row.TrainingSecs), f1(row.TuningSecs), f1(row.TuningKJ),
		})
		if row.Epochs != nil {
			t.Notes = append(t.Notes, epochsNote(row.Workload.Name(), *row.Epochs))
		}
	}
	return t
}
