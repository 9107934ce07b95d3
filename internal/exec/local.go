package exec

import (
	"context"
	"sync"

	"pipetune/internal/trainer"
)

// Local executes trial bodies on a bounded in-process goroutine pool —
// the pre-refactor execution path, preserved bit-identically: the same
// semaphore discipline, the same per-trial context check before each
// body, the same trainer invocation. The deterministic-simulation test
// suite (and every library caller) runs on this backend by default.
type Local struct {
	// Trainer executes the trial bodies. Required.
	Trainer *trainer.Runner
}

// NewLocal wires a local backend to a trainer.
func NewLocal(tr *trainer.Runner) *Local { return &Local{Trainer: tr} }

// Run implements Backend: every trial gets a goroutine, at most
// maxParallel of which hold the semaphore (and therefore compute) at
// once. A context cancelled mid-batch skips trials that have not started
// yet (they fail with ctx.Err()); trials already inside the trainer run
// to completion — a trial body is the cancellation granularity.
func (l *Local) Run(ctx context.Context, trials []Trial, maxParallel int) ([]*trainer.Result, []error) {
	if maxParallel < 1 {
		maxParallel = 1
	}
	results := make([]*trainer.Result, len(trials))
	errs := make([]error, len(trials))
	sem := make(chan struct{}, maxParallel)
	var wg sync.WaitGroup
	for i, tr := range trials {
		i, tr := i, tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = l.Trainer.Run(tr.Workload, tr.Hyper, tr.Sys, tr.Seed, tr.Observer)
		}()
	}
	wg.Wait()
	return results, errs
}
