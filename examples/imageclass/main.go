// Image classification (Type-I jobs): the same LeNet-5 model tuned for two
// different datasets — the paper's recommendation-engine pattern where a
// model is retrained per tenant corpus.
//
// The demonstration runs the Fashion-MNIST job twice: once on a cold
// system (no history — every trial probes system configurations from
// scratch) and once after an MNIST job has populated the ground-truth
// database. The warm run reuses the discovered configuration at epoch 2 of
// each trial and finishes its tuning sooner.
//
//	go run ./examples/imageclass
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pipetune"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	fashion := pipetune.Workload{Model: pipetune.LeNet5, Dataset: pipetune.FashionMNIST}
	mnist := pipetune.Workload{Model: pipetune.LeNet5, Dataset: pipetune.MNIST}

	// Cold: a fresh system runs the Fashion-MNIST job with no history.
	coldSys, err := pipetune.New(pipetune.WithSeed(7), pipetune.WithCorpusSize(512, 192))
	if err != nil {
		return err
	}
	cold, err := coldSys.RunPipeTune(coldSys.JobSpec(fashion))
	if err != nil {
		return err
	}

	// Warm: the same job, after an MNIST job built up the ground truth.
	warmSys, err := pipetune.New(pipetune.WithSeed(7), pipetune.WithCorpusSize(512, 192))
	if err != nil {
		return err
	}
	if _, err := warmSys.RunPipeTune(warmSys.JobSpec(mnist)); err != nil {
		return err
	}
	warm, err := warmSys.RunPipeTune(warmSys.JobSpec(fashion))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-28s  %-12s  %-12s\n", "fashion-mnist job", "accuracy", "tuning [s]")
	fmt.Fprintf(out, "%-28s  %-12.2f  %-12.1f\n", "cold (no history)", cold.Best.Result.Accuracy*100, cold.TuningTime)
	fmt.Fprintf(out, "%-28s  %-12.2f  %-12.1f\n", "warm (after mnist job)", warm.Best.Result.Accuracy*100, warm.TuningTime)

	info := warmSys.GroundTruth().Info()
	fmt.Fprintf(out, "\nwarm system ground truth: %d entries, %d hits, %d misses\n", info.Entries, info.Hits, info.Misses)
	fmt.Fprintf(out, "tuning-time reduction from history: %.1f%%\n", (1-warm.TuningTime/cold.TuningTime)*100)
	fmt.Fprintln(out, "\nSame model + new dataset lands in the same profile cluster (Type-I,")
	fmt.Fprintln(out, "Figure 4a/4b of the paper), so the warm run skips most probing.")
	return nil
}
