package experiments

import (
	"pipetune/internal/core"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// ConvergenceCurve is one system's progress during a CNN/News20 HPT job.
type ConvergenceCurve struct {
	System string               `json:"system"`
	Points []tune.ProgressPoint `json:"points"`
	// Final summaries.
	TuningTime   float64 `json:"tuningTime"`
	BestAccuracy float64 `json:"bestAccuracy"`
}

// ConvergenceResult holds Figures 9 and 10 (they plot the same three runs).
type ConvergenceResult struct {
	Curves []ConvergenceCurve `json:"curves"`
}

// Figure9and10 regenerates Figures 9 and 10: accuracy convergence and
// training-trial-time convergence of PipeTune vs Tune V1 vs Tune V2 while
// tuning a CNN on News20. PipeTune runs warm-started (§7.2).
func Figure9and10(cfg Config) (*ConvergenceResult, error) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	res := &ConvergenceResult{}

	v1, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Curves = append(res.Curves, ConvergenceCurve{
		System: "Tune V1", Points: v1.Progress,
		TuningTime: v1.TuningTime, BestAccuracy: maxProgressAccuracy(v1.Progress),
	})

	v2, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(jobSpec(cfg, w, tune.ModeV2, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Curves = append(res.Curves, ConvergenceCurve{
		System: "Tune V2", Points: v2.Progress,
		TuningTime: v2.TuningTime, BestAccuracy: maxProgressAccuracy(v2.Progress),
	})

	pt := core.New(tune.NewRunner(newTrainer(cfg), paperCluster()))
	if err := pt.Bootstrap(workload.OfType(workload.TypeI, workload.TypeII), cfg.Seed+1); err != nil {
		return nil, err
	}
	ptRes, err := pt.RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Curves = append(res.Curves, ConvergenceCurve{
		System: "PipeTune", Points: ptRes.Progress,
		TuningTime: ptRes.TuningTime, BestAccuracy: maxProgressAccuracy(ptRes.Progress),
	})
	return res, nil
}

// maxProgressAccuracy is the accuracy frontier's final value: the highest
// accuracy any trial reached (the quantity Figure 9 converges to,
// regardless of which trial the objective ultimately selects).
func maxProgressAccuracy(points []tune.ProgressPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].BestAccuracy
}

// Table renders the convergence curves (Figure 9's series; Figure 10's
// trial-duration series shares the same rows).
func (r *ConvergenceResult) Table() *Table {
	t := &Table{
		Title:  "Figures 9/10: accuracy and trial-time convergence (CNN/News20)",
		Header: []string{"system", "wall clock [s]", "best accuracy [%]", "trial time [s]"},
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{
				c.System, f1(p.Time), f2(p.BestAccuracy * 100), f1(p.TrialDuration),
			})
		}
	}
	return t
}
