// Command experiments regenerates the paper's tables and figures as text
// tables (see EXPERIMENTS.md for the paper-vs-measured discussion).
//
// Usage:
//
//	experiments [-seed N] [-only fig1,table2,...] [-list]
//
// -list prints every experiment id with a one-line description. Default
// runs everything.
package main

import (
	"flag"
	"fmt"
	"os"
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

	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seedFlag
	ran := 0
	for _, e := range experiments.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("== %s ==\n%s\n", e.ID, res.Table().Render())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q (use -list)", *onlyFlag)
	}
	return nil
}
