// Command experiments regenerates the paper's tables and figures as text
// tables (see EXPERIMENTS.md for the paper-vs-measured discussion).
//
// Usage:
//
//	experiments [-seed N] [-only fig1,table2,...] [-list]
//
// -list prints every experiment id with a one-line description. Default
// runs everything; an -only id that names no experiment is an error
// before anything runs.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"pipetune/internal/experiments"
)

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

	if *listFlag {
		for _, e := range experiments.Experiments {
			fmt.Printf("%-20s %s\n", e.ID, e.Doc)
		}
		return nil
	}

	selected, err := selectExperiments(*onlyFlag)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seedFlag
	for _, e := range selected {
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("== %s ==\n%s\n", e.ID, res.Table().Render())
	}
	return nil
}

// selectExperiments returns the experiments a comma-separated -only list
// names, in registry order; an empty list selects every one. An id that
// names no experiment is an error before anything runs, so a typo never
// silently runs part of what was asked.
func selectExperiments(only string) ([]experiments.Experiment, error) {
	if only == "" {
		return experiments.Experiments, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var selected []experiments.Experiment
	for _, e := range experiments.Experiments {
		if want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("no experiment %q (use -list)", slices.Sorted(maps.Keys(want)))
	}
	return selected, nil
}
