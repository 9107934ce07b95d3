// Multi-tenancy (§7.4): HPT jobs arrive at a shared cluster with
// exponentially distributed inter-arrival times and are placed by the
// event-driven scheduler. The example measures mean response time under the
// baseline and under PipeTune, whose shorter per-job tuning compounds
// through the queue — and then shows the pipetuned daemon's job
// dispatcher sharing one worker pool between two tenants by weighted
// deficit round robin.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"pipetune"
	"pipetune/internal/admission"
	"pipetune/internal/cluster"
	"pipetune/internal/sched"
	"pipetune/internal/xrand"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	sys, err := pipetune.New(
		pipetune.WithSeed(5),
		pipetune.WithCorpusSize(96, 48), // response time depends only on simulated durations
	)
	if err != nil {
		return err
	}
	if err := sys.Bootstrap(pipetune.WorkloadsOfType(pipetune.TypeI, pipetune.TypeII)); err != nil {
		return err
	}

	// A 10-job trace alternating Type-I and Type-II workloads.
	catalog := []pipetune.Workload{
		{Model: pipetune.LeNet5, Dataset: pipetune.MNIST},
		{Model: pipetune.CNN, Dataset: pipetune.News20},
		{Model: pipetune.LeNet5, Dataset: pipetune.FashionMNIST},
		{Model: pipetune.LSTM, Dataset: pipetune.News20},
	}
	const numJobs = 10
	mix := make([]pipetune.Workload, numJobs)
	for i := range mix {
		mix[i] = catalog[i%len(catalog)]
	}

	// Per-job tuning durations under each system (PipeTune processes the
	// trace in order, sharing its ground truth across jobs).
	baseDur := make([]float64, numJobs)
	ptDur := make([]float64, numJobs)
	for i, w := range mix {
		spec := sys.JobSpec(w)
		spec.Seed = uint64(100 + i)
		base, err := sys.RunBaseline(spec)
		if err != nil {
			return err
		}
		baseDur[i] = base.TuningTime
		pt, err := sys.RunPipeTune(spec)
		if err != nil {
			return err
		}
		ptDur[i] = pt.TuningTime
	}

	// One shared Poisson arrival process; two concurrent job slots.
	meanDur := 0.0
	for _, d := range baseDur {
		meanDur += d
	}
	meanDur /= numJobs
	arrivals := cluster.PoissonArrivals(xrand.New(99), numJobs, meanDur/2/0.8)

	simulate := func(durations []float64) (float64, error) {
		tasks := make([]sched.Task, numJobs)
		for i := range tasks {
			tasks[i] = sched.Task{ID: i, Arrival: arrivals[i], Duration: durations[i]}
		}
		stats, err := sched.Simulate(tasks, 2)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for _, st := range stats {
			total += st.Response
		}
		return total / numJobs, nil
	}
	baseResp, err := simulate(baseDur)
	if err != nil {
		return err
	}
	ptResp, err := simulate(ptDur)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "jobs: %d, slots: 2, mean inter-arrival: %.0f s\n\n", numJobs, meanDur/2/0.8)
	fmt.Fprintf(out, "%-10s  %-22s\n", "system", "mean response time [s]")
	fmt.Fprintf(out, "%-10s  %-22.1f\n", "Tune V1", baseResp)
	fmt.Fprintf(out, "%-10s  %-22.1f\n", "PipeTune", ptResp)
	fmt.Fprintf(out, "\nresponse-time reduction: %.1f%%\n", (1-ptResp/baseResp)*100)

	// Fair-share job dispatch: the pipetuned daemon's admission queue
	// (-job-policy fair) arbitrates whole tuning jobs between tenants.
	// Two tenants dump equal backlogs; weight 2 earns twice the dispatch
	// share, whatever the submission interleaving.
	fmt.Fprintf(out, "\nfair dispatch, weights research=2 interns=1, equal backlogs:\n")
	q, err := admission.New(admission.Config{
		Policy:  admission.PolicyFair,
		Weights: map[string]int{"research": 2, "interns": 1},
	})
	if err != nil {
		return err
	}
	for i := 0; i < 9; i++ {
		for _, tenant := range []string{"research", "interns"} {
			if err := q.Push(admission.Job{
				ID: fmt.Sprintf("%s-%d", tenant, i), Tenant: tenant, Cost: meanDur,
			}); err != nil {
				return err
			}
		}
	}
	var order []string
	for q.Len() > 0 {
		j, _ := q.Pop()
		order = append(order, j.Tenant[:1]) // r / i
	}
	fmt.Fprintf(out, "dispatch order: %s\n", strings.Join(order, " "))
	return nil
}
