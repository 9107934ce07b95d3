package experiments

import (
	"fmt"
	"sort"

	"pipetune/internal/admission"
	"pipetune/internal/cluster"
	"pipetune/internal/core"
	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/stats"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// MultiTenancyRow is one bar of Figures 13/14: mean response time of a job
// class under one system.
type MultiTenancyRow struct {
	Group        string  `json:"group"` // "Type-I", "Type-II", "Type-III" or "all"
	System       string  `json:"system"`
	MeanResponse float64 `json:"meanResponse"`
}

// MultiTenancyResult holds one full figure.
type MultiTenancyResult struct {
	Figure string            `json:"figure"`
	Jobs   int               `json:"jobs"`
	Rows   []MultiTenancyRow `json:"rows"`
}

// row returns the (group, system) mean response.
func (r *MultiTenancyResult) row(group, system string) (MultiTenancyRow, error) {
	for _, row := range r.Rows {
		if row.Group == group && row.System == system {
			return row, nil
		}
	}
	return MultiTenancyRow{}, fmt.Errorf("experiments: no row for %s/%s", group, system)
}

// Figure13 regenerates Figure 13: average response time of randomly
// arriving Type-I and Type-II HPT jobs on the shared 4-node cluster, per
// type and overall, for the three systems. Jobs arrive with exponential
// inter-arrival times; the two types are balanced 50/50; ~20% of jobs are
// "unseen" (their workload is absent from PipeTune's warm-started ground
// truth).
func Figure13(cfg Config) (*MultiTenancyResult, error) {
	mix, seen := figure13Mix(cfg)
	groupOf := func(w workload.Workload) string { return w.Type().String() }
	return multiTenancy(cfg, "Figure 13", mix, seen, groupOf, false, 2)
}

// figure13Mix builds the §7.4 job trace — a balanced Type-I/Type-II mix,
// round-robin within a type, with every fourth Type-I job the "unseen"
// workload (~20-25% of all jobs) — and returns it together with the seen
// workloads PipeTune's ground truth is warm-started from.
func figure13Mix(cfg Config) (mix, seen []workload.Workload) {
	seen = []workload.Workload{
		{Model: workload.LeNet5, Dataset: workload.MNIST},
		{Model: workload.CNN, Dataset: workload.News20},
		{Model: workload.LSTM, Dataset: workload.News20},
	}
	unseen := workload.Workload{Model: workload.LeNet5, Dataset: workload.FashionMNIST}
	mix = make([]workload.Workload, cfg.MultiTenantJobs)
	typeI := []workload.Workload{seen[0], unseen}
	typeII := []workload.Workload{seen[1], seen[2]}
	i1, i2 := 0, 0
	for i := range mix {
		if i%2 == 0 {
			if (i/2)%2 == 1 {
				mix[i] = typeI[1]
			} else {
				mix[i] = typeI[0]
			}
			i1++
		} else {
			mix[i] = typeII[i2%len(typeII)]
			i2++
		}
	}
	return mix, seen
}

// Figure14 regenerates Figure 14: the same trace machinery for Type-III
// jobs on the single-node testbed (one job slot), per workload and overall.
func Figure14(cfg Config) (*MultiTenancyResult, error) {
	seen := []workload.Workload{
		{Model: workload.Jacobi, Dataset: workload.Rodinia},
		{Model: workload.SPKMeans, Dataset: workload.Rodinia},
	}
	unseen := workload.Workload{Model: workload.BFS, Dataset: workload.Rodinia}
	all := []workload.Workload{seen[0], seen[1], unseen}
	mix := make([]workload.Workload, cfg.MultiTenantJobs)
	for i := range mix {
		if i%5 == 4 {
			mix[i] = unseen // 20% unseen
		} else {
			mix[i] = all[i%2] // round robin over the seen kernels
		}
	}
	groupOf := func(w workload.Workload) string { return w.Model.String() }
	return multiTenancy(cfg, "Figure 14", mix, seen, groupOf, true, 1)
}

// multiTenancy runs the shared-cluster trace for all three systems.
func multiTenancy(cfg Config, figure string, mix, bootstrapSet []workload.Workload,
	groupOf func(workload.Workload) string, onSingleNode bool, slots int) (*MultiTenancyResult, error) {

	// The corpus can be tiny here: response times depend only on simulated
	// durations, which derive from Table 3's full sizes.
	tinyCfg := cfg
	tinyCfg.Data = dataset.Config{TrainSize: 96, TestSize: 48}

	mkTrainer := func() *trainer.Runner { return newTrainer(tinyCfg) }
	mkCluster := paperCluster
	if onSingleNode {
		mkCluster = singleNode
	}

	// Per-job tuning durations under each system. PipeTune processes jobs
	// in arrival order against one shared, warm-started ground truth.
	durations := make(map[string][]float64, 3)
	runBaseline := func(mode tune.Mode) ([]float64, error) {
		runner := tune.NewRunner(mkTrainer(), mkCluster())
		out := make([]float64, len(mix))
		for i, w := range mix {
			res, err := runner.RunJob(jobSpec(tinyCfg, w, mode, cfg.Seed+uint64(i)*13, onSingleNode))
			if err != nil {
				return nil, err
			}
			out[i] = res.TuningTime
		}
		return out, nil
	}
	var err error
	if durations[SystemV1], err = runBaseline(tune.ModeV1); err != nil {
		return nil, fmt.Errorf("%s v1: %w", figure, err)
	}
	if durations[SystemV2], err = runBaseline(tune.ModeV2); err != nil {
		return nil, fmt.Errorf("%s v2: %w", figure, err)
	}

	pt := core.New(tune.NewRunner(mkTrainer(), mkCluster()))
	if onSingleNode {
		pt.Probes = singleNodeProbes()
	}
	if err := pt.Bootstrap(bootstrapSet, cfg.Seed+1); err != nil {
		return nil, err
	}
	ptDur := make([]float64, len(mix))
	for i, w := range mix {
		res, err := pt.RunJob(jobSpec(tinyCfg, w, tune.ModeV1, cfg.Seed+uint64(i)*13, onSingleNode))
		if err != nil {
			return nil, fmt.Errorf("%s pipetune: %w", figure, err)
		}
		ptDur[i] = res.TuningTime
	}
	durations[SystemPipeTune] = ptDur

	// One arrival process shared by all systems: load factor ~80% of the
	// V1 service capacity, so queues form but stay stable.
	meanV1 := stats.Mean(durations[SystemV1])
	arrivals := cluster.PoissonArrivals(xrand.New(cfg.Seed+7), len(mix), meanV1/float64(slots)/0.8)

	res := &MultiTenancyResult{Figure: figure, Jobs: len(mix)}
	for _, system := range []string{SystemV1, SystemV2, SystemPipeTune} {
		tasks := make([]sched.Task, len(mix))
		for i := range mix {
			tasks[i] = sched.Task{ID: i, Arrival: arrivals[i], Duration: durations[system][i]}
		}
		jstats, err := sched.Simulate(tasks, slots)
		if err != nil {
			return nil, err
		}
		byGroup := map[string][]float64{}
		var overall []float64
		for i, s := range jstats {
			g := groupOf(mix[i])
			byGroup[g] = append(byGroup[g], s.Response)
			overall = append(overall, s.Response)
		}
		groups := make([]string, 0, len(byGroup))
		for g := range byGroup {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			res.Rows = append(res.Rows, MultiTenancyRow{
				Group: g, System: system, MeanResponse: stats.Mean(byGroup[g]),
			})
		}
		res.Rows = append(res.Rows, MultiTenancyRow{
			Group: "all", System: system, MeanResponse: stats.Mean(overall),
		})
	}
	return res, nil
}

// Table renders the figure.
func (r *MultiTenancyResult) Table() *Table {
	t := &Table{
		Title:  r.Figure + ": mean response time on the shared cluster",
		Header: []string{"group", "system", "mean response [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Group, row.System, f1(row.MeanResponse)})
	}
	return t
}

// FairShareRow is one (policy, tenant) outcome of the fair-share trace.
type FairShareRow struct {
	Policy string `json:"policy"`
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	// Completed counts the tenant's jobs finished by the horizon (the
	// instant half the total backlog has completed — deep inside
	// saturation, before either backlog drains).
	Completed int `json:"completed"`
	// Share is the tenant's fraction of horizon completions.
	Share float64 `json:"share"`
	// MeanWait is the mean queue wait of the tenant's horizon jobs.
	MeanWait float64 `json:"meanWait"`
}

// FairShareResult compares job dispatch policies on a two-tenant trace.
type FairShareResult struct {
	JobsPerTenant int            `json:"jobsPerTenant"`
	Horizon       int            `json:"horizon"` // completions counted
	Rows          []FairShareRow `json:"rows"`
}

// row returns the (policy, tenant) row.
func (r *FairShareResult) row(policy, tenant string) (FairShareRow, error) {
	for _, row := range r.Rows {
		if row.Policy == policy && row.Tenant == tenant {
			return row, nil
		}
	}
	return FairShareRow{}, fmt.Errorf("experiments: no row for %s/%s", policy, tenant)
}

// Table renders the comparison.
func (r *FairShareResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fair share: two saturating tenants, %d jobs each, horizon %d completions",
			r.JobsPerTenant, r.Horizon),
		Header: []string{"policy", "tenant", "weight", "completed", "share", "mean wait [s]"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy, row.Tenant, fmt.Sprintf("%d", row.Weight),
			fmt.Sprintf("%d", row.Completed), fmt.Sprintf("%.2f", row.Share), f1(row.MeanWait),
		})
	}
	return t
}

// FairShare measures what the pipetuned dispatcher's job policies deliver
// under multi-tenant saturation, deterministically and footprinted: two
// tenants ("gold" at weight 2, "free" at weight 1) each dump an equal
// backlog of identical Type-I HPT jobs at t=0; the admission queue
// (internal/admission — the live service's dispatcher core) decides the
// dispatch order; and the internal/sched engine executes that order on the
// 4-node pool with real footprints. At the horizon — half the total
// backlog completed, deep inside saturation — deficit round robin gives
// the weight-2 tenant ~2x the completed jobs of the weight-1 tenant,
// while FIFO splits 1:1 regardless of weights. No randomness anywhere:
// durations come from the cost model, arrivals are simultaneous, and both
// the queue and the engine are deterministic.
func FairShare(cfg Config) (*FairShareResult, error) {
	const (
		tenantGold = "gold"
		tenantFree = "free"
	)
	weights := map[string]int{tenantGold: 2, tenantFree: 1}
	perTenant := cfg.MultiTenantJobs * 4

	// All jobs are the same Type-I workload: identical cost-model duration
	// and a half-node footprint, so completed-job counts directly measure
	// throughput share.
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	h := params.DefaultHyper()
	h.Epochs = cfg.Epochs
	footprint := params.SysConfig{Cores: 16, MemoryGB: 32}
	duration, err := newTrainer(cfg).PredictDuration(w, h, footprint)
	if err != nil {
		return nil, fmt.Errorf("fair share: %w", err)
	}

	// The horizon is a whole number of dispatch cycles under both
	// policies (weight sum 3 for fair, 2 for fifo -> multiple of 6), so
	// the steady-state shares appear exactly rather than +/- a partial
	// cycle's rounding.
	horizon := perTenant / 6 * 6
	if horizon < 6 {
		horizon = 6
	}
	res := &FairShareResult{JobsPerTenant: perTenant, Horizon: horizon}
	for _, policy := range []admission.Policy{admission.PolicyFair, admission.PolicyFIFO} {
		q, err := admission.New(admission.Config{Policy: policy, Weights: weights})
		if err != nil {
			return nil, err
		}
		tenantOf := make([]string, 0, 2*perTenant)
		for i := 0; i < perTenant; i++ {
			for _, tenant := range []string{tenantGold, tenantFree} {
				id := len(tenantOf)
				if err := q.Push(admission.Job{
					ID: fmt.Sprintf("%d", id), Tenant: tenant, Cost: duration,
				}); err != nil {
					return nil, err
				}
				tenantOf = append(tenantOf, tenant)
			}
		}
		// The queue fixes the dispatch order; the engine's head-of-line
		// FIFO preserves it while packing footprints onto the pool.
		eng := sched.New(paperCluster().SchedPool(), nil, 0)
		dispatchIdx := make(map[int]int, 2*perTenant)
		for dispatch := 0; q.Len() > 0; dispatch++ {
			j, _ := q.Pop()
			var id int
			fmt.Sscanf(j.ID, "%d", &id)
			dispatchIdx[id] = dispatch
			if err := eng.Submit(sched.Task{
				ID: id, Arrival: 0, Sys: footprint, Duration: duration,
			}, nil); err != nil {
				return nil, fmt.Errorf("fair share (%s): %w", policy, err)
			}
		}
		if err := eng.Run(); err != nil {
			return nil, fmt.Errorf("fair share (%s): %w", policy, err)
		}
		// Identical durations finish in batches at identical instants;
		// dispatch order breaks those ties deterministically (within a
		// batch it is also the start order).
		done := append([]sched.TaskStats(nil), eng.Stats()...)
		sort.Slice(done, func(i, j int) bool {
			if done[i].End != done[j].End {
				return done[i].End < done[j].End
			}
			return dispatchIdx[done[i].ID] < dispatchIdx[done[j].ID]
		})
		completed := map[string]int{}
		waits := map[string][]float64{}
		for _, st := range done[:res.Horizon] {
			tenant := tenantOf[st.ID]
			completed[tenant]++
			waits[tenant] = append(waits[tenant], st.Wait)
		}
		for _, tenant := range []string{tenantGold, tenantFree} {
			row := FairShareRow{
				Policy:    string(policy),
				Tenant:    tenant,
				Weight:    weights[tenant],
				Completed: completed[tenant],
				Share:     float64(completed[tenant]) / float64(res.Horizon),
			}
			if len(waits[tenant]) > 0 {
				row.MeanWait = stats.Mean(waits[tenant])
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}
