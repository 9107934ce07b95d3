// Command experiments regenerates the paper's tables and figures as text
// tables (see EXPERIMENTS.md for the paper-vs-measured discussion).
//
// Usage:
//
//	experiments [-seed N] [-only fig1,table2,...] [-list]
//
// Experiment ids: fig1 fig2 fig3a fig3bc fig5 table2 fig8 fig9 fig11 fig12
// fig13 fig14 ablation-gt ablation-searchers ablation-threshold
// ablation-probe. Default runs everything.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pipetune/internal/experiments"
)

// renderer produces one experiment's table.
type renderer struct {
	id  string
	fn  func(experiments.Config) (interface{ Render() string }, error)
	doc string
}

func registry() []renderer {
	wrap := func(f func(experiments.Config) (*experiments.Table, error)) func(experiments.Config) (interface{ Render() string }, error) {
		return func(cfg experiments.Config) (interface{ Render() string }, error) {
			return f(cfg)
		}
	}
	return []renderer{
		{"fig1", wrap(tableOf(experiments.Figure1)), "exhaustive tuning cost on EC2"},
		{"fig2", wrap(tableOf(experiments.Figure2)), "58-event per-epoch profile heatmap"},
		{"fig3a", wrap(tableOf(experiments.Figure3a)), "batch-size impact"},
		{"fig3bc", wrap(tableOf(experiments.Figure3bc)), "cores impact per batch size"},
		{"fig5", wrap(tableOf(experiments.Figure5)), "Tune V2 under system conditions"},
		{"table2", wrap(tableOf(experiments.Table2)), "approach comparison on LeNet/MNIST"},
		{"fig8", wrap(tableOf(experiments.Figure8)), "workload-profile clustering"},
		{"fig9", wrap(tableOf(experiments.Figure9and10)), "convergence curves (figs 9+10)"},
		{"fig11", wrap(tableOf(experiments.Figure11)), "single tenancy, Type-I/II"},
		{"fig12", wrap(tableOf(experiments.Figure12)), "single tenancy, Type-III"},
		{"fig13", wrap(tableOf(experiments.Figure13)), "multi tenancy, Type-I/II"},
		{"fig14", wrap(tableOf(experiments.Figure14)), "multi tenancy, Type-III"},
		{"sched-policies", wrap(tableOf(experiments.SchedulingPolicies)), "placement policies under contention"},
		{"fair-share", wrap(tableOf(experiments.FairShare)), "weighted fair job dispatch across tenants"},
		{"scale-out", wrap(tableOf(experiments.ScaleOut)), "trial throughput vs pipetune-worker fleet size"},
		{"reuse", wrap(tableOf(experiments.Reuse)), "trial prefix cache: sys-sweep epochs trained and saved, cache on/off"},
		{"spot-savings", wrap(tableOf(experiments.SpotSavings)), "spot fleet + checkpointed recovery vs all on-demand"},
		{"ablation-gt", wrap(tableOf(experiments.AblationNoGroundTruth)), "ground truth on/off"},
		{"ablation-searchers", wrap(tableOf(experiments.AblationSearchers)), "search algorithms"},
		{"ablation-threshold", wrap(tableOf(experiments.AblationThreshold)), "similarity threshold sweep"},
		{"ablation-probe", wrap(tableOf(experiments.AblationProbeBudget)), "probing budget sweep"},
	}
}

// tabler is any experiment result that renders to a Table.
type tabler interface {
	Table() *experiments.Table
}

// tableOf adapts a typed experiment function to the common signature.
func tableOf[T tabler](f func(experiments.Config) (T, error)) func(experiments.Config) (*experiments.Table, error) {
	return func(cfg experiments.Config) (*experiments.Table, error) {
		res, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seedFlag = flag.Uint64("seed", 42, "master seed")
		onlyFlag = flag.String("only", "", "comma-separated experiment ids (default: all)")
		listFlag = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	regs := registry()
	if *listFlag {
		for _, r := range regs {
			fmt.Printf("%-20s %s\n", r.id, r.doc)
		}
		return nil
	}

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seedFlag
	ran := 0
	for _, r := range regs {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		out, err := r.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		fmt.Printf("== %s ==\n%s\n", r.id, out.Render())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q (use -list)", *onlyFlag)
	}
	return nil
}
