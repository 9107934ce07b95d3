package experiments

import (
	"fmt"

	"pipetune/internal/core"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Ablations exercise the design choices DESIGN.md calls out, beyond the
// paper's headline figures.

// ----------------------------------------------- ablation: ground truth ---

// AblationGTRow compares PipeTune with and without the ground-truth
// database over a sequence of jobs.
type AblationGTRow struct {
	Variant     string  `json:"variant"` // "warm ground truth" / "no ground truth"
	MeanTuningS float64 `json:"meanTuningS"`
	HitRate     float64 `json:"hitRate"`
}

// AblationGTResult holds the comparison.
type AblationGTResult struct {
	Jobs int             `json:"jobs"`
	Rows []AblationGTRow `json:"rows"`
}

// AblationNoGroundTruth quantifies what the historical database earns: the
// same job sequence runs once with a warm-started ground truth and once
// with lookups disabled (every trial probes from scratch) — the §7.4
// "unseen jobs" overhead made permanent.
func AblationNoGroundTruth(cfg Config) (*AblationGTResult, error) {
	seq := []workload.Workload{
		{Model: workload.LeNet5, Dataset: workload.MNIST},
		{Model: workload.CNN, Dataset: workload.News20},
		{Model: workload.LeNet5, Dataset: workload.MNIST},
		{Model: workload.CNN, Dataset: workload.News20},
	}
	run := func(variant string, disableGT bool) (AblationGTRow, error) {
		pt := core.New(tune.NewRunner(newTrainer(cfg), paperCluster()))
		if disableGT {
			// A database that never accumulates enough entries never hits.
			gtCfg := gt.DefaultConfig()
			gtCfg.MinEntries = 1 << 30
			pt.GT = gt.NewMemory(gtCfg)
		} else if err := pt.Bootstrap(workload.OfType(workload.TypeI, workload.TypeII), cfg.Seed+1); err != nil {
			return AblationGTRow{}, err
		}
		total := 0.0
		for i, w := range seq {
			res, err := pt.RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed+uint64(i), false))
			if err != nil {
				return AblationGTRow{}, err
			}
			total += res.TuningTime
		}
		info := pt.GT.Info()
		hitRate := 0.0
		if info.Hits+info.Misses > 0 {
			hitRate = float64(info.Hits) / float64(info.Hits+info.Misses)
		}
		return AblationGTRow{
			Variant:     variant,
			MeanTuningS: total / float64(len(seq)),
			HitRate:     hitRate,
		}, nil
	}
	res := &AblationGTResult{Jobs: 4}
	warm, err := run("warm ground truth", false)
	if err != nil {
		return nil, err
	}
	cold, err := run("no ground truth", true)
	if err != nil {
		return nil, err
	}
	res.Rows = []AblationGTRow{warm, cold}
	return res, nil
}

// Table renders the ablation.
func (r *AblationGTResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: ground-truth database on vs off (mean tuning time over a job sequence)",
		Header: []string{"variant", "mean tuning [s]", "hit rate"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Variant, f1(row.MeanTuningS), f2(row.HitRate)})
	}
	return t
}

// -------------------------------------------------- ablation: searchers ---

// AblationSearcherRow is one search algorithm's outcome under a fixed
// trial budget.
type AblationSearcherRow struct {
	Searcher     string  `json:"searcher"`
	Trials       int     `json:"trials"`
	BestAccuracy float64 `json:"bestAccuracy"`
	TuningSecs   float64 `json:"tuningSecs"`
}

// AblationSearcherResult compares the five Figure 7 search strategies.
type AblationSearcherResult struct {
	Rows []AblationSearcherRow `json:"rows"`
}

// AblationSearchers runs the same V1 job under each of the five search
// algorithms PipeTune inherits (§6), with comparable trial budgets.
func AblationSearchers(cfg Config) (*AblationSearcherResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	factories := []struct {
		name string
		f    tune.SearcherFactory
	}{
		{"grid", func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewGrid(space, 12, 0)
		}},
		{"random", func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewRandom(space, 12, 0, r)
		}},
		{"hyperband", func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewHyperBand(space, 9, 3, r)
		}},
		{"genetic", func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewGenetic(space, 6, 2, r)
		}},
		{"bayesian", func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewBayesian(space, 12, r)
		}},
	}
	res := &AblationSearcherResult{}
	for _, fc := range factories {
		spec := jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false)
		spec.Searcher = fc.f
		jres, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(spec)
		if err != nil {
			return nil, fmt.Errorf("searcher %s: %w", fc.name, err)
		}
		res.Rows = append(res.Rows, AblationSearcherRow{
			Searcher:     fc.name,
			Trials:       len(jres.Trials),
			BestAccuracy: jres.Best.Result.Accuracy,
			TuningSecs:   jres.TuningTime,
		})
	}
	return res, nil
}

// Table renders the ablation.
func (r *AblationSearcherResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: search algorithms under comparable budgets (LeNet/MNIST, V1)",
		Header: []string{"searcher", "trials", "best accuracy [%]", "tuning [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Searcher, d(row.Trials), f2(row.BestAccuracy * 100), f1(row.TuningSecs),
		})
	}
	return t
}

// -------------------------------------------------- ablation: threshold ---

// AblationThresholdRow is one similarity-threshold setting.
type AblationThresholdRow struct {
	Threshold  float64 `json:"threshold"`
	HitRate    float64 `json:"hitRate"`
	TuningSecs float64 `json:"tuningSecs"`
}

// AblationThresholdResult holds the sweep.
type AblationThresholdResult struct {
	Rows []AblationThresholdRow `json:"rows"`
}

// AblationThreshold sweeps the §5.6 similarity threshold: too strict and
// every job re-probes (wasted epochs); too loose and jobs inherit
// configurations from the wrong cluster.
func AblationThreshold(cfg Config) (*AblationThresholdResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	res := &AblationThresholdResult{}
	for _, th := range []float64{0.1, 0.5, 1.5, 3.0} {
		gtCfg := gt.DefaultConfig()
		gtCfg.Threshold = th
		pt := core.New(tune.NewRunner(newTrainer(cfg), paperCluster()))
		pt.GT = gt.NewMemory(gtCfg)
		if err := pt.Bootstrap(workload.OfType(workload.TypeI, workload.TypeII), cfg.Seed+1); err != nil {
			return nil, err
		}
		jres, err := pt.RunJob(jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false))
		if err != nil {
			return nil, err
		}
		info := pt.GT.Info()
		hitRate := 0.0
		if info.Hits+info.Misses > 0 {
			hitRate = float64(info.Hits) / float64(info.Hits+info.Misses)
		}
		res.Rows = append(res.Rows, AblationThresholdRow{
			Threshold:  th,
			HitRate:    hitRate,
			TuningSecs: jres.TuningTime,
		})
	}
	return res, nil
}

// Table renders the ablation.
func (r *AblationThresholdResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: similarity-threshold sweep (hit rate vs tuning time)",
		Header: []string{"threshold", "hit rate", "tuning [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{f2(row.Threshold), f2(row.HitRate), f1(row.TuningSecs)})
	}
	return t
}

// ------------------------------------------------ ablation: probe budget ---

// AblationProbeRow is one probing-budget setting.
type AblationProbeRow struct {
	MaxProbeEpochs int `json:"maxProbeEpochs"`
	// ProbeEpochs is how many epochs the job's trials spent probing in
	// all, the quantity the budget bounds.
	ProbeEpochs int     `json:"probeEpochs"`
	TuningSecs  float64 `json:"tuningSecs"`
}

// AblationProbeResult holds the sweep.
type AblationProbeResult struct {
	Rows []AblationProbeRow `json:"rows"`
}

// AblationProbeBudget sweeps how many epochs a cold trial may spend
// probing (§5.6's grid search at epoch granularity): probing more
// configurations finds better settings but each probe epoch may run a bad
// configuration.
func AblationProbeBudget(cfg Config) (*AblationProbeResult, error) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	res := &AblationProbeResult{}
	for _, budget := range []int{1, 2, 4, 6} {
		runner := tune.NewRunner(newTrainer(cfg), paperCluster())
		pt := core.New(runner) // cold: every trial probes
		gtCfg := gt.DefaultConfig()
		gtCfg.MinEntries = 1 << 30
		pt.GT = gt.NewMemory(gtCfg)

		ctrl := core.NewController(pt.GT)
		ctrl.MaxProbeEpochs = budget
		spec := jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false)
		spec.TrialObserver = ctrl.ObserverFor
		spec.OnTrialDone = ctrl.Finish
		jres, err := runner.RunJob(spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationProbeRow{
			MaxProbeEpochs: budget,
			ProbeEpochs:    ctrl.Counts().ProbeEpochs,
			TuningSecs:     jres.TuningTime,
		})
	}
	return res, nil
}

// Table renders the ablation.
func (r *AblationProbeResult) Table() *Table {
	t := &Table{
		Title:  "Ablation: probing budget (epochs spent probing per cold trial)",
		Header: []string{"max probe epochs", "probe epochs", "tuning [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{d(row.MaxProbeEpochs), d(row.ProbeEpochs), f1(row.TuningSecs)})
	}
	return t
}
