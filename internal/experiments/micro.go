package experiments

import (
	"fmt"

	"pipetune/internal/costmodel"
	"pipetune/internal/ec2"
	"pipetune/internal/energy"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/stats"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// ------------------------------------------------------------- Figure 1 ---

// Figure1Row is one (instance, #params) cell of Figure 1.
type Figure1Row struct {
	Instance    ec2.InstanceType `json:"instance"`
	NumParams   int              `json:"numParams"`
	Trials      int              `json:"trials"`
	TuningHours float64          `json:"tuningHours"`
	CostUSD     float64          `json:"costUSD"`
}

// Figure1Result holds the full Figure 1 sweep.
type Figure1Result struct {
	TrialSeconds float64      `json:"trialSeconds"`
	Rows         []Figure1Row `json:"rows"`
}

// Figure1 regenerates Figure 1: exhaustive LeNet/MNIST tuning time and EC2
// cost versus the number of tuned parameters (1..6, three values each).
func Figure1(cfg Config) (*Figure1Result, error) {
	// One grid trial: LeNet/MNIST, short training (2 epochs).
	h := params.DefaultHyper()
	h.Epochs = 2
	tr := workload.TraitsFor(workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST})
	trialSeconds, err := costmodel.Default().TrialDuration(tr, h, params.DefaultSysConfig())
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{TrialSeconds: trialSeconds}
	for _, inst := range ec2.All() {
		for k := 1; k <= 6; k++ {
			trials, err := ec2.TrialCount(k, 3)
			if err != nil {
				return nil, err
			}
			hours, err := ec2.TuningHours(inst, k, trialSeconds)
			if err != nil {
				return nil, err
			}
			cost, err := ec2.TuningCostUSD(inst, k, trialSeconds)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Figure1Row{
				Instance: inst, NumParams: k, Trials: trials,
				TuningHours: hours, CostUSD: cost,
			})
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *Figure1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: exhaustive tuning time and EC2 cost vs number of parameters",
		Header: []string{"instance", "params", "trials", "tuning [h]", "cost [$]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Instance.String(), d(row.NumParams), d(row.Trials),
			f2(row.TuningHours), f2(row.CostUSD),
		})
	}
	return t
}

// ------------------------------------------------------------- Figure 2 ---

// Figure2Result is the per-epoch event heatmap: 58 events × (init + E
// epochs) average rates.
type Figure2Result struct {
	Events []string    `json:"events"`
	Phases []string    `json:"phases"` // "Init.", "1", "2", ...
	Cells  [][]float64 `json:"cells"`  // [event][phase]
}

// Figure2 regenerates Figure 2: profiling a CNN/News20 training (init + 5
// epochs, 16 cores / 32 GB) into the 58-event per-epoch heatmap.
func Figure2(cfg Config) (*Figure2Result, error) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	tr := workload.TraitsFor(w)
	h := params.DefaultHyper()
	h.Epochs = 5
	sys := params.SysConfig{Cores: 16, MemoryGB: 32}
	sampler := perf.NewSampler()
	r := xrand.New(cfg.Seed)

	res := &Figure2Result{
		Events: perf.EventNames(),
		Phases: []string{"Init.", "1", "2", "3", "4", "5"},
		Cells:  make([][]float64, perf.NumEvents),
	}
	for i := range res.Cells {
		res.Cells[i] = make([]float64, len(res.Phases))
	}
	for p := range res.Phases {
		phase := perf.PhaseTrain
		if p == 0 {
			phase = perf.PhaseInit
		}
		profile, err := sampler.EpochProfile(r, tr, h, sys, phase, tr.EpochSeconds)
		if err != nil {
			return nil, err
		}
		for i, v := range profile {
			res.Cells[i][p] = v
		}
	}
	return res, nil
}

// Table renders a compact view (order-of-magnitude buckets, as the paper's
// colour scale does).
func (r *Figure2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2: performance-counter events averaged by epoch (log10 of events/s)",
		Header: append([]string{"event"}, r.Phases...),
	}
	for i, name := range r.Events {
		row := []string{name}
		for _, v := range r.Cells[i] {
			row = append(row, f1(log10(v)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func log10(v float64) float64 {
	if v <= 0 {
		return 0
	}
	l := 0.0
	for v >= 10 {
		v /= 10
		l++
	}
	// Linear interpolation of the final decade is plenty for display.
	return l + (v-1)/9
}

// ------------------------------------------------------------ Figure 3a ---

// Figure3aRow is one batch-size column of Figure 3a: differences against
// the batch-32 baseline.
type Figure3aRow struct {
	BatchSize   int     `json:"batchSize"`
	AccuracyPct float64 `json:"accuracyPct"`
	DurationPct float64 `json:"durationPct"`
	EnergyPct   float64 `json:"energyPct"`
}

// Figure3aResult holds Figure 3a plus its baseline measurements.
type Figure3aResult struct {
	BaselineAccuracy float64       `json:"baselineAccuracy"`
	BaselineDuration float64       `json:"baselineDuration"`
	BaselineEnergyJ  float64       `json:"baselineEnergyJ"`
	Rows             []Figure3aRow `json:"rows"`
}

// Figure3a regenerates Figure 3a: the impact of batch size on LeNet/MNIST
// accuracy, runtime and energy against a batch-32 baseline. Accuracy comes
// from genuine SGD training; duration and energy from the calibrated
// models.
func Figure3a(cfg Config) (*Figure3aResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	run := func(batch int) (acc, dur, joules float64, err error) {
		tr := newTrainer(cfg)
		h := params.DefaultHyper()
		h.BatchSize = batch
		h.Epochs = cfg.Epochs
		h.LearningRate = 0.05
		res, err := tr.Run(w, h, params.DefaultSysConfig(), cfg.Seed, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		return res.Accuracy, res.Duration, res.EnergyJ, nil
	}
	baseAcc, baseDur, baseEn, err := run(32)
	if err != nil {
		return nil, err
	}
	res := &Figure3aResult{BaselineAccuracy: baseAcc, BaselineDuration: baseDur, BaselineEnergyJ: baseEn}
	for _, batch := range []int{64, 256, 1024} {
		acc, dur, en, err := run(batch)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Figure3aRow{
			BatchSize:   batch,
			AccuracyPct: stats.RelDiffPercent(acc, baseAcc),
			DurationPct: stats.RelDiffPercent(dur, baseDur),
			EnergyPct:   stats.RelDiffPercent(en, baseEn),
		})
	}
	return res, nil
}

// Table renders Figure 3a.
func (r *Figure3aResult) Table() *Table {
	t := &Table{
		Title:  "Figure 3a: batch-size impact vs batch 32 (LeNet/MNIST)",
		Header: []string{"batch", "accuracy [%]", "duration [%]", "energy [%]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.BatchSize), f1(row.AccuracyPct), f1(row.DurationPct), f1(row.EnergyPct),
		})
	}
	return t
}

// ----------------------------------------------------------- Figure 3bc ---

// Figure3bcRow is one (batch, cores) cell of Figures 3b and 3c:
// duration/energy difference against the single-core baseline of the same
// batch size.
type Figure3bcRow struct {
	BatchSize   int     `json:"batchSize"`
	Cores       int     `json:"cores"`
	DurationPct float64 `json:"durationPct"`
	EnergyPct   float64 `json:"energyPct"`
}

// Figure3bcResult holds the sweep.
type Figure3bcResult struct {
	Rows []Figure3bcRow `json:"rows"`
}

// Figure3bc regenerates Figures 3b and 3c: core-count impact on epoch
// runtime and energy per batch size, baseline = sequential (1 core).
func Figure3bc(cfg Config) (*Figure3bcResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	tr := workload.TraitsFor(w)
	cm := costmodel.Default()
	pm := energy.DefaultPowerModel()

	measure := func(batch, cores int) (dur, joules float64, err error) {
		h := params.DefaultHyper()
		h.BatchSize = batch
		sys := params.SysConfig{Cores: cores, MemoryGB: 32}
		d, err := cm.EpochDuration(tr, h, sys)
		if err != nil {
			return 0, 0, err
		}
		bd, err := cm.EpochBreakdown(tr, h, sys)
		if err != nil {
			return 0, 0, err
		}
		e, err := pm.TrialEnergy(sys, bd.ComputeFraction(), d)
		if err != nil {
			return 0, 0, err
		}
		return d, e, nil
	}

	res := &Figure3bcResult{}
	for _, batch := range []int{64, 256, 1024} {
		baseDur, baseEn, err := measure(batch, 1)
		if err != nil {
			return nil, err
		}
		for _, cores := range []int{2, 4, 8} {
			dur, en, err := measure(batch, cores)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Figure3bcRow{
				BatchSize:   batch,
				Cores:       cores,
				DurationPct: stats.RelDiffPercent(dur, baseDur),
				EnergyPct:   stats.RelDiffPercent(en, baseEn),
			})
		}
	}
	return res, nil
}

// row returns the cell for (batch, cores), or an error if absent.
func (r *Figure3bcResult) row(batch, cores int) (Figure3bcRow, error) {
	for _, row := range r.Rows {
		if row.BatchSize == batch && row.Cores == cores {
			return row, nil
		}
	}
	return Figure3bcRow{}, fmt.Errorf("experiments: no cell for batch %d cores %d", batch, cores)
}

// Table renders Figures 3b/3c.
func (r *Figure3bcResult) Table() *Table {
	t := &Table{
		Title:  "Figure 3b/3c: cores impact on duration and energy per batch size (baseline: 1 core)",
		Header: []string{"batch", "cores", "duration [%]", "energy [%]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			d(row.BatchSize), d(row.Cores), f1(row.DurationPct), f1(row.EnergyPct),
		})
	}
	return t
}
