package experiments

import (
	"encoding/json"
	"fmt"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// ReuseRow is one cache setting's outcome on the sys-sweep trace.
type ReuseRow struct {
	Cache string `json:"cache"` // "off" or "on"
	// Trials is the sweep length; EpochsTrained the epochs of SGD
	// actually computed and EpochsSaved the epochs the cache avoided —
	// both exact, footprinted quantities.
	Trials        int    `json:"trials"`
	EpochsTrained uint64 `json:"epochsTrained"`
	EpochsSaved   uint64 `json:"epochsSaved"`
}

// ReuseResult is the memoisation trace: the same training prefix swept
// across system configurations with the trial prefix cache off and on.
type ReuseResult struct {
	Workload   string `json:"workload"`
	SysConfigs int    `json:"sysConfigs"`
	Epochs     int    `json:"epochs"`
	// Identical is the headline: the sweep's trial results, and a whole
	// tuning job's Best score and TuningTime, are byte-identical with
	// the cache on and off.
	Identical bool `json:"identical"`
	// BestScore and TuningTime are the (cache-invariant) tuning-job
	// outcomes that prove reuse never changes a decision.
	BestScore  float64    `json:"bestScore"`
	TuningTime float64    `json:"tuningTime"`
	Rows       []ReuseRow `json:"rows"`
}

// Table renders the trace.
func (r *ReuseResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Trial prefix cache: %d-config sys sweep on %s (%d epochs), identical results = %v",
			r.SysConfigs, r.Workload, r.Epochs, r.Identical),
		Header: []string{"cache", "trials", "epochs trained", "epochs saved"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Cache, fmt.Sprintf("%d", row.Trials),
			fmt.Sprintf("%d", row.EpochsTrained), fmt.Sprintf("%d", row.EpochsSaved),
		})
	}
	return t
}

// Reuse measures what the trial prefix cache buys on PipeTune's own
// access pattern. Algorithm 1's system tuning explores many system
// configurations per hyperparameter point, but SGD progress depends only
// on the training prefix — never on cores or memory (the observation
// PipeTune shares with Li et al.'s reuse work). The trace sweeps one
// workload/hyper/seed across every configuration of the §7.1.4 system
// space, cache off and cache on: identical trial results (compared
// through their JSON serialisation), with the cached sweep training the
// prefix once and replaying it SysConfigs-1 times. A full tuning job run
// both ways seals the end-to-end claim: same Best, same TuningTime. The
// table holds only exact quantities, so it renders the same on any
// machine; BenchmarkTrialCache (internal/trainer) prices the throughput.
func Reuse(cfg Config) (*ReuseResult, error) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	h := params.DefaultHyper()
	h.Epochs = cfg.Epochs
	var sweep []params.SysConfig
	for _, c := range systemSpace()[0].Values {
		for _, m := range systemSpace()[1].Values {
			sweep = append(sweep, params.SysConfig{Cores: int(c), MemoryGB: int(m)})
		}
	}
	seed := cfg.Seed

	runSweep := func(tr *trainer.Runner) ([]string, error) {
		out := make([]string, len(sweep))
		for i, sys := range sweep {
			res, err := tr.Run(w, h, sys, seed, nil)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			out[i] = string(b)
		}
		return out, nil
	}

	offRes, err := runSweep(newTrainer(cfg))
	if err != nil {
		return nil, err
	}
	on := newTrainer(cfg)
	on.Cache = trainer.NewTrialCache(0)
	onRes, err := runSweep(on)
	if err != nil {
		return nil, err
	}
	identical := true
	for i := range offRes {
		if offRes[i] != onRes[i] {
			identical = false
		}
	}
	st := on.Cache.Stats()

	// The end-to-end seal: one tuning job, cache off and on, must agree
	// on the winner and the makespan.
	spec := jobSpec(cfg, w, tune.ModeV1, cfg.Seed, false)
	jobOff, err := tune.NewRunner(newTrainer(cfg), paperCluster()).RunJob(spec)
	if err != nil {
		return nil, err
	}
	cachedTr := newTrainer(cfg)
	cachedTr.Cache = trainer.NewTrialCache(0)
	jobOn, err := tune.NewRunner(cachedTr, paperCluster()).RunJob(spec)
	if err != nil {
		return nil, err
	}
	if jobOff.Best == nil || jobOn.Best == nil {
		return nil, fmt.Errorf("experiments: reuse job finished without a best trial")
	}
	if jobOff.Best.Score != jobOn.Best.Score || jobOff.TuningTime != jobOn.TuningTime {
		identical = false
	}

	return &ReuseResult{
		Workload:   w.Name(),
		SysConfigs: len(sweep),
		Epochs:     h.Epochs,
		Identical:  identical,
		BestScore:  jobOn.Best.Score,
		TuningTime: jobOn.TuningTime,
		Rows: []ReuseRow{
			{Cache: "off", Trials: len(sweep), EpochsTrained: uint64(len(sweep) * h.Epochs), EpochsSaved: 0},
			{Cache: "on", Trials: len(sweep), EpochsTrained: st.EpochsTrained, EpochsSaved: st.EpochsSaved},
		},
	}, nil
}
