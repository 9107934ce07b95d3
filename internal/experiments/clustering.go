package experiments

import (
	"fmt"

	"pipetune/internal/costmodel"
	"pipetune/internal/kmeans"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/stats"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Figure8Row summarises one workload's clustering outcome.
type Figure8Row struct {
	Workload     workload.Workload `json:"workload"`
	Type         workload.Type     `json:"type"`
	Cluster1     int               `json:"cluster1"` // profiles labelled cluster 1
	Cluster2     int               `json:"cluster2"` // profiles labelled cluster 2
	MeanDuration float64           `json:"meanDuration"`
	// MajorityCluster is the label holding most of this workload's
	// profiles (1 or 2).
	MajorityCluster int `json:"majorityCluster"`
}

// Figure8Result holds the clustering of the profiling campaign.
type Figure8Result struct {
	Profiles int          `json:"profiles"` // total points clustered
	Inertia  float64      `json:"inertia"`
	Rows     []Figure8Row `json:"rows"`
}

// Figure8 regenerates Figure 8: k-means (k=2) over the §7.2 profiling
// campaign — each Type-I/II workload profiled under 48 system/batch
// configurations (memory {4,8,16,32} GB × cores {4,8,16} × batch size
// {32,64,512,1024}), twice each — grouped by model and dataset. The
// expected outcome is one cluster per workload family.
func Figure8(cfg Config) (*Figure8Result, error) {
	workloads := workload.OfType(workload.TypeI, workload.TypeII)
	sampler := perf.NewSampler()
	cm := costmodel.Default()
	r := xrand.New(cfg.Seed)

	type labelled struct {
		w        workload.Workload
		features []float64
		duration float64
	}
	var points []labelled
	for _, w := range workloads {
		tr := workload.TraitsFor(w)
		for _, mem := range []int{4, 8, 16, 32} {
			for _, cores := range []int{4, 8, 16} {
				for _, batch := range []int{32, 64, 512, 1024} {
					for rep := 0; rep < 2; rep++ {
						h := params.DefaultHyper()
						h.BatchSize = batch
						sys := params.SysConfig{Cores: cores, MemoryGB: mem}
						profile, err := sampler.EpochProfile(r, tr, h, sys, perf.PhaseTrain, 10)
						if err != nil {
							return nil, err
						}
						dur, err := cm.EpochDuration(tr, h, sys)
						if err != nil {
							return nil, err
						}
						points = append(points, labelled{w: w, features: profile.Features(), duration: dur})
					}
				}
			}
		}
	}

	vecs := make([][]float64, len(points))
	for i, p := range points {
		vecs[i] = p.features
	}
	model, err := kmeans.Fit(vecs, kmeans.DefaultConfig(), xrand.New(cfg.Seed+1))
	if err != nil {
		return nil, err
	}

	res := &Figure8Result{Profiles: len(points), Inertia: model.Inertia}
	for _, w := range workloads {
		row := Figure8Row{Workload: w, Type: w.Type()}
		var durations []float64
		for i, p := range points {
			if p.w != w {
				continue
			}
			if model.Labels[i] == 0 {
				row.Cluster1++
			} else {
				row.Cluster2++
			}
			durations = append(durations, p.duration)
		}
		row.MeanDuration = stats.Mean(durations)
		row.MajorityCluster = 1
		if row.Cluster2 > row.Cluster1 {
			row.MajorityCluster = 2
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// row returns the summary for a workload.
func (r *Figure8Result) row(w workload.Workload) (Figure8Row, error) {
	for _, row := range r.Rows {
		if row.Workload == w {
			return row, nil
		}
	}
	return Figure8Row{}, fmt.Errorf("experiments: workload %s not in figure 8", w.Name())
}

// Table renders Figure 8.
func (r *Figure8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8: k-means clustering of workload profiles grouped by model/dataset",
		Header: []string{"workload", "type", "cluster1", "cluster2", "mean epoch [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload.Name(), row.Type.String(), d(row.Cluster1), d(row.Cluster2), f1(row.MeanDuration),
		})
	}
	return t
}
