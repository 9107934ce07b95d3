package experiments

// Result is what every experiment returns: structured rows that render as
// one text table.
type Result interface {
	Table() *Table
}

// Experiment is one regenerable table or figure of the evaluation.
type Experiment struct {
	ID, Doc string
	Run     func(Config) (Result, error)
}

// Experiments lists every experiment, in the order cmd/experiments prints
// them. testdata/<id>.txt holds each one's table at the tests' sizing.
var Experiments = []Experiment{
	{"fig1", "exhaustive tuning cost on EC2", erase(Figure1)},
	{"fig2", "58-event per-epoch profile heatmap", erase(Figure2)},
	{"fig3a", "batch-size impact", erase(Figure3a)},
	{"fig3bc", "cores impact per batch size", erase(Figure3bc)},
	{"fig5", "Tune V2 under system conditions", erase(Figure5)},
	{"table2", "approach comparison on LeNet/MNIST", erase(Table2)},
	{"fig8", "workload-profile clustering", erase(Figure8)},
	{"fig9", "convergence curves (figs 9+10)", erase(Figure9and10)},
	{"fig11", "single tenancy, Type-I/II", erase(Figure11)},
	{"fig12", "single tenancy, Type-III", erase(Figure12)},
	{"fig13", "multi tenancy, Type-I/II", erase(Figure13)},
	{"fig14", "multi tenancy, Type-III", erase(Figure14)},
	{"fair-share", "weighted fair job dispatch across tenants", erase(FairShare)},
	{"reuse", "trial prefix cache: sys-sweep epochs trained and saved, cache on/off", erase(Reuse)},
	{"ablation-gt", "ground truth on/off", erase(AblationNoGroundTruth)},
	{"ablation-searchers", "search algorithms", erase(AblationSearchers)},
	{"ablation-threshold", "similarity threshold sweep", erase(AblationThreshold)},
	{"ablation-probe", "probing budget sweep", erase(AblationProbeBudget)},
}

// erase adapts a typed experiment function to Experiment.Run.
func erase[R Result](f func(Config) (R, error)) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) { return f(cfg) }
}
