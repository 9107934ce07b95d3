package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pipetune/internal/trainer"
)

// ErrBadToken aborts an agent whose token the daemon rejects — retrying
// would never succeed.
var ErrBadToken = errors.New("exec: worker token rejected by the daemon")

// errStreamVersion aborts an agent whose stream protocol version the
// daemon refuses (426 at the upgrade): the pair must upgrade together,
// and retrying would never succeed either.
var errStreamVersion = errors.New("exec: stream protocol version refused by the daemon")

// AgentConfig wires a worker-side agent.
type AgentConfig struct {
	// Server is the pipetuned base URL, e.g. "http://localhost:8080".
	Server string
	// Token is the shared worker token (must match the daemon's
	// -worker-token; empty when the daemon runs open).
	Token string
	// Name labels the worker in fleet status (default: hostname).
	Name string
	// Wire is accepted and ignored; the stream is the only wire; delete
	// with the next benchmark PR.
	Wire string
	// Capacity is how many trial bodies compute concurrently (default 1).
	Capacity int
	// Heartbeat shortens the beat cadence below the interval the daemon
	// advertises; 0, or anything slower, adopts the advertised interval.
	Heartbeat time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Agent is the worker-side half of the remote execution plane: it
// holds one stream session with the daemon (streamagent.go), computes
// the trials it is granted on a local trainer substrate reproducing the
// daemon's configuration, streams epoch observations back, and
// heartbeats. On eviction (a long network partition, a daemon restart)
// it reconnects under a new worker id and resumes — the daemon has
// already requeued whatever it was holding.
type Agent struct {
	cfg AgentConfig

	mu       sync.Mutex
	trainers map[TrainerConfig]*trainer.Runner // one per captured configuration, reused across trials

	// stats is the current session's telemetry collector, swapped per
	// session so the daemon's per-registration delta baseline of zero is
	// exact; trainerFor reads it to instrument trainers built mid-session.
	stats atomic.Pointer[workerStats]
}

// NewAgent builds an agent.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.Name == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Name = host
		} else {
			cfg.Name = "pipetune-worker"
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Agent{cfg: cfg, trainers: make(map[TrainerConfig]*trainer.Runner)}
}

// Run serves until the context is cancelled (the normal exit, returning
// ctx.Err()) or the daemon rejects the token or the protocol version.
// Everything else — the daemon not up yet, restarts, transport
// failures, evictions — is absorbed by reconnecting.
func (a *Agent) Run(ctx context.Context) error {
	for {
		err := a.streamSession(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrBadToken) || errors.Is(err, errStreamVersion) {
			return err
		}
		if err != nil {
			a.cfg.Logf("worker: stream session ended: %v (reconnecting)", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// runBody executes the trial body, converting a panic into a trial
// error: a poison trial (one whose parameters crash the trainer) must
// fail its job with a diagnosis, not kill the worker process — a dead
// worker would get the trial requeued onto the next worker, serially
// destroying the fleet.
func runBody(tr *trainer.Runner, asg Assignment, obs trainer.EpochObserver) (res *trainer.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("exec: trial body panicked: %v", p)
		}
	}()
	return tr.Run(asg.Workload, asg.Hyper, asg.Sys, asg.Seed, obs)
}

// newSessionStats starts a fresh per-session collector and re-points
// the cached trainers' kernel sketches at it, so cumulative series
// restart at zero exactly when the daemon's per-registration baseline
// does — including the nn timings observed by trainers built during an
// earlier registration.
func (a *Agent) newSessionStats() *workerStats {
	st := newWorkerStats()
	a.stats.Store(st)
	a.mu.Lock()
	for _, tr := range a.trainers {
		tr.InstrumentKernels(st.trainEpochSeconds, st.evalSeconds)
	}
	a.mu.Unlock()
	return st
}

// trainerFor returns (building and caching) the trainer reproducing a
// captured configuration. Caching lets trials of one workload family share
// a corpus while any of them trains (an idle trainer releases its corpora)
// and keeps the trial prefix cache across sessions.
func (a *Agent) trainerFor(tc TrainerConfig) *trainer.Runner {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tr, ok := a.trainers[tc]; ok {
		return tr
	}
	tr := tc.NewRunner()
	if st := a.stats.Load(); st != nil {
		tr.InstrumentKernels(st.trainEpochSeconds, st.evalSeconds)
	}
	a.trainers[tc] = tr
	return tr
}
