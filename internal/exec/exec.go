// Package exec is the pluggable execution plane of the tuning system: it
// owns *where trial bodies compute*. The tuning layer (internal/tune)
// decides what to run — workload, hyperparameters, starting system
// configuration, seed — and hands batches of Trials to a Backend; the
// backend decides which CPU actually pays for them.
//
// Two backends ship:
//
//   - Local runs trial bodies on a bounded in-process goroutine pool —
//     exactly the pre-refactor behaviour, bit-identical results, and the
//     default everywhere (library callers, tests, pipetuned without
//     flags).
//   - Remote fans trial bodies out to a fleet of pipetune-worker
//     processes that each hold one framed stream to the daemon, are
//     granted trials over it, stream per-epoch observations back (so
//     PipeTune's pipelined system tuning and the scheduler's resize
//     events still fire mid-trial) and heartbeat. A lost worker's leases
//     are requeued and results commit at most once.
//
// The split mirrors the paper's own layering: PipeTune builds on Ray
// Tune precisely because tuning jobs are fleets of independent trials
// that want to spread across a cluster (§6). Everything above this
// package — searchers, the discrete-event scheduler, the ground-truth
// middleware — is backend-agnostic; only the trial body (one
// trainer.Run invocation) moves.
package exec

import (
	"context"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// Trial is one unit of compute: run this workload with these parameters
// and report the trainer's result. It deliberately carries no searcher or
// scheduler state — the tuning layer keeps those — so a Trial can cross a
// process boundary.
type Trial struct {
	// ID is the searcher's trial id, unique within one job.
	ID int
	// Workload, Hyper, Sys and Seed fully determine the (deterministic)
	// trial body: same inputs, same trainer.Result, on any backend.
	Workload workload.Workload
	Hyper    params.Hyper
	Sys      params.SysConfig
	Seed     uint64
	// Observer, when non-nil, receives the trial's epoch-boundary
	// callbacks (PipeTune's pipelined system tuning), each epoch exactly
	// once. It always runs in the submitting process: remote backends
	// stream epoch observations back over the wire and relay the
	// observer's configuration switches to the worker, so the
	// ground-truth database and controller state never leave the daemon.
	// A backend that re-runs a trial body (a requeued lease) answers the
	// epochs the observer already saw with what it said then.
	Observer trainer.EpochObserver
	// Restart is accepted and ignored; delete with the next benchmark PR.
	Restart func()
	// Trainer captures the submitting trainer's wire-portable
	// configuration so fleet backends reproduce the body bit-identically
	// on another process. Local backends ignore it — they run on the
	// trainer they were wired to.
	Trainer TrainerConfig
	// CacheKey is accepted and ignored; delete with the next benchmark PR.
	CacheKey string
}

// Backend executes trial bodies. Implementations must be safe for
// concurrent Run calls: the tuning service runs many jobs over one
// backend.
type Backend interface {
	// Run executes the batch and returns results positionally:
	// results[i] is non-nil exactly when errs[i] is nil. maxParallel
	// bounds how many trial bodies compute concurrently on pool-style
	// backends (the pre-refactor goroutine-pool semantics); fleet
	// backends are bounded by aggregate worker capacity instead and may
	// ignore it.
	//
	// A cancelled ctx stops the batch at trial granularity: trials not
	// yet started fail with ctx.Err(), trials already computing run to
	// completion where the backend can still commit them. Run returns
	// only once every trial is terminal (result, error, or cancelled).
	Run(ctx context.Context, trials []Trial, maxParallel int) (results []*trainer.Result, errs []error)
}
