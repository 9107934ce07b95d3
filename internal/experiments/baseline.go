package experiments

import (
	"context"

	"pipetune/internal/core"
	"pipetune/internal/params"
	"pipetune/internal/stats"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// ------------------------------------------------------------- Figure 5 ---

// Figure5Row is one (cores, jobs) cell: Tune V2's error and runtime
// improvement relative to a single, uncontended Tune V1 job.
type Figure5Row struct {
	Cores         int     `json:"cores"`
	Jobs          int     `json:"jobs"`
	ErrorImpPct   float64 `json:"errorImpPct"`
	RuntimeImpPct float64 `json:"runtimeImpPct"`
}

// Figure5Result holds the characterisation grid.
type Figure5Result struct {
	BaselineError   float64      `json:"baselineError"`
	BaselineRuntime float64      `json:"baselineRuntime"`
	Rows            []Figure5Row `json:"rows"`
}

// Figure5 regenerates Figure 5: Tune V2 under varying system conditions —
// the tuning job pinned to {1,2,4,8} cores shared with {1,2,3} background
// jobs — against a single Tune V1 baseline. Positive values mean V2 beat
// the baseline under those conditions; the paper's observation is that
// only a few configurations do.
func Figure5(cfg Config) (*Figure5Result, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}

	// Baseline: one V1 job, default resources, no contention.
	baseRunner := tune.NewRunner(newTrainer(cfg), paperCluster())
	baseSpec := jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false)
	baseRes, err := baseRunner.RunJob(baseSpec)
	if err != nil {
		return nil, err
	}
	baseErr := 1 - baseRes.Best.Result.Accuracy
	baseTime := baseRes.Best.Result.Duration

	res := &Figure5Result{BaselineError: baseErr, BaselineRuntime: baseTime}
	for _, cores := range []int{1, 2, 4, 8} {
		for _, jobs := range []int{2, 3, 4} {
			tr := newTrainer(cfg)
			tr.Load = float64(jobs) // tuning job + (jobs-1) background jobs
			runner := tune.NewRunner(tr, paperCluster())
			spec := jobSpec(cfg, w, tune.ModeV2, cfg.Seed+uint64(cores*10+jobs), false)
			spec.BaseSys = params.SysConfig{Cores: cores, MemoryGB: 8}
			// The V2 search may not exceed the pinned core budget.
			spec.SystemSpace = params.Space{
				{Name: params.KeyCores, Values: coreValuesUpTo(cores)},
				{Name: params.KeyMemoryGB, Values: []float64{4, 8}},
			}
			jres, err := runner.RunJob(spec)
			if err != nil {
				return nil, err
			}
			vErr := 1 - jres.Best.Result.Accuracy
			vTime := jres.Best.Result.Duration
			res.Rows = append(res.Rows, Figure5Row{
				Cores:         cores,
				Jobs:          jobs,
				ErrorImpPct:   stats.RelDiffPercent(baseErr, vErr),
				RuntimeImpPct: stats.RelDiffPercent(baseTime, vTime),
			})
		}
	}
	return res, nil
}

func coreValuesUpTo(n int) []float64 {
	vals := []float64{}
	for _, c := range []float64{1, 2, 4, 8} {
		if int(c) <= n {
			vals = append(vals, c)
		}
	}
	return vals
}

// Table renders Figure 5.
func (r *Figure5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: Tune V2 under system conditions vs single Tune V1 (improvement %)",
		Header: []string{"cores", "jobs", "error imp [%]", "runtime imp [%]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.Cores), d(row.Jobs), f1(row.ErrorImpPct), f1(row.RuntimeImpPct),
		})
	}
	return t
}

// -------------------------------------------------------------- Table 2 ---

// Table2Row is one approach row of Table 2.
type Table2Row struct {
	Approach     string  `json:"approach"`
	AccuracyPct  float64 `json:"accuracyPct"`
	TrainingSecs float64 `json:"trainingSecs"`
	TuningSecs   float64 `json:"tuningSecs"` // 0 for "Arbitrary"
	// Epochs says where the PipeTune job's epochs went; nil elsewhere.
	Epochs *core.Counts `json:"epochs,omitempty"`
}

// Table2Result holds the four approaches.
type Table2Result struct {
	Rows []Table2Row `json:"rows"`
}

// Table2 regenerates Table 2: accuracy, training time and tuning time of
// Arbitrary / Tune V1 / Tune V2 / PipeTune for LeNet on MNIST.
func Table2(cfg Config) (*Table2Result, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	res := &Table2Result{}

	// Arbitrary: a plausible but untuned configuration (large batch, slow
	// learning rate) on the default system parameters.
	arbTrainer := newTrainer(cfg)
	arbHyper := params.DefaultHyper()
	arbHyper.BatchSize = 1024
	arbHyper.LearningRate = 0.005
	arbHyper.Epochs = cfg.Epochs
	arb, err := arbTrainer.Run(w, arbHyper, baseSys(), cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table2Row{
		Approach:     "Arbitrary",
		AccuracyPct:  arb.Accuracy * 100,
		TrainingSecs: arb.Duration,
	})

	// Tune V1.
	v1, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table2Row{
		Approach:     "Tune V1",
		AccuracyPct:  v1.Best.Result.Accuracy * 100,
		TrainingSecs: v1.Best.Result.Duration,
		TuningSecs:   v1.TuningTime,
	})

	// Tune V2.
	v2, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(jobSpec(cfg, w, tune.ModeV2, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table2Row{
		Approach:     "Tune V2",
		AccuracyPct:  v2.Best.Result.Accuracy * 100,
		TrainingSecs: v2.Best.Result.Duration,
		TuningSecs:   v2.TuningTime,
	})

	// PipeTune, warm-started per §7.2's initial similarity model.
	pt := core.New(tune.NewRunner(newTrainer(cfg), paperCluster()), cfg.Seed)
	if err := pt.Bootstrap(workload.OfType(workload.TypeI, workload.TypeII), cfg.Seed+1); err != nil {
		return nil, err
	}
	ptRes, counts, err := pt.RunJobCounts(context.Background(), jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table2Row{
		Approach:     "PipeTune",
		AccuracyPct:  ptRes.Best.Result.Accuracy * 100,
		TrainingSecs: ptRes.Best.Result.Duration,
		TuningSecs:   ptRes.TuningTime,
		Epochs:       &counts,
	})
	return res, nil
}

// row returns the named approach's row.
func (r *Table2Result) row(approach string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Approach == approach {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Table renders Table 2.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:  "Table 2: accuracy, training and tuning time per approach (LeNet/MNIST)",
		Header: []string{"approach", "accuracy [%]", "training [s]", "tuning [s]"},
	}
	for _, row := range r.Rows {
		tuning := "-"
		if row.TuningSecs > 0 {
			tuning = f1(row.TuningSecs)
		}
		t.Rows = append(t.Rows, []string{
			row.Approach, f2(row.AccuracyPct), f1(row.TrainingSecs), tuning,
		})
		if row.Epochs != nil {
			t.Notes = append(t.Notes, epochsNote("LeNet/MNIST", *row.Epochs))
		}
	}
	return t
}
