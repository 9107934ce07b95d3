package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// ErrBadToken aborts an agent whose token the daemon rejects — retrying
// would never succeed.
var ErrBadToken = errors.New("exec: worker token rejected by the daemon")

// AgentConfig wires a worker-side agent.
type AgentConfig struct {
	// Server is the pipetuned base URL, e.g. "http://localhost:8080".
	Server string
	// Token is the shared worker token (must match the daemon's
	// -worker-token; empty when the daemon runs open).
	Token string
	// Name labels the worker in fleet status (default: hostname).
	Name string
	// Wire selects the work protocol: WireBinary for the persistent
	// framed stream, WireJSON (or "") for the long-poll HTTP/JSON API.
	// The daemon must mount the matching wire (-exec-wire).
	Wire string
	// Capacity is how many trial bodies compute concurrently (default 1).
	Capacity int
	// TrainParallelism is the worker's default deterministic intra-trial
	// kernel parallelism degree, applied only when an assignment's
	// TrainerConfig does not ship its own (the daemon's knob wins, so
	// mixed fleets stay uniformly configured). 0/1 = serial. Never
	// changes trial bits — the nn kernels are bit-identical at every
	// degree.
	TrainParallelism int
	// Heartbeat overrides the beat cadence; 0 adopts the daemon's
	// advertised interval.
	Heartbeat time.Duration
	// LeaseWait bounds each lease long poll; 0 adopts the daemon's
	// advertised bound.
	LeaseWait time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// HTTPClient overrides http.DefaultClient (tests).
	HTTPClient *http.Client
}

// Agent is the worker-side half of the remote execution plane: it
// registers with the daemon, leases trials, computes them on a local
// trainer substrate reproducing the daemon's configuration, streams
// epoch observations back, and heartbeats. On eviction (a long network
// partition, a daemon restart) it re-registers and resumes — the daemon
// has already requeued whatever it was holding.
type Agent struct {
	cfg AgentConfig

	mu       sync.Mutex
	trainers map[TrainerConfig]*trainer.Runner // corpus caches stay warm across trials

	// stats is the current JSON-wire session's telemetry collector
	// (heartbeats ship its snapshots); swapped per session so the
	// daemon's per-registration delta baseline of zero is exact. The
	// binary wire keeps its collector on the stream session instead.
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
// ctx.Err()) or the daemon rejects the token. Everything else —
// the daemon not up yet, restarts, evictions — is absorbed by retry and
// re-registration.
func (a *Agent) Run(ctx context.Context) error {
	if a.cfg.Wire == WireBinary {
		return a.runBinary(ctx)
	}
	for {
		reg, err := a.register(ctx)
		if err != nil {
			return err
		}
		a.cfg.Logf("worker: registered as %s with %s (capacity %d)", reg.WorkerID, a.cfg.Server, a.cfg.Capacity)
		a.session(ctx, reg)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.cfg.Logf("worker: session %s ended (evicted or daemon restarted); re-registering", reg.WorkerID)
	}
}

// register retries until the daemon admits the worker, the token is
// rejected, or ctx ends.
func (a *Agent) register(ctx context.Context) (RegisterResponse, error) {
	req := RegisterRequest{Name: a.cfg.Name, Capacity: a.cfg.Capacity}
	for {
		var resp RegisterResponse
		code, err := a.doJSON(ctx, "/v1/workers", req, &resp, 10*time.Second)
		switch {
		case err == nil && code == http.StatusOK:
			return resp, nil
		case code == http.StatusUnauthorized:
			return RegisterResponse{}, ErrBadToken
		}
		if err != nil {
			a.cfg.Logf("worker: register: %v (retrying)", err)
		} else {
			a.cfg.Logf("worker: register: daemon answered %d (retrying)", code)
		}
		select {
		case <-ctx.Done():
			return RegisterResponse{}, ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// session runs one registration's lifetime: a heartbeat loop plus
// Capacity lease loops. It returns when ctx ends or the daemon stops
// recognising the worker id (eviction) — any loop noticing a 404 ends
// the whole session so Run re-registers.
func (a *Agent) session(ctx context.Context, reg RegisterResponse) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := a.newSessionStats()

	hb := a.cfg.Heartbeat
	if hb <= 0 {
		hb = time.Duration(reg.HeartbeatSeconds * float64(time.Second))
	}
	if hb <= 0 {
		hb = 2 * time.Second
	}
	wait := a.cfg.LeaseWait
	if wait <= 0 {
		wait = time.Duration(reg.LeaseWaitSeconds * float64(time.Second))
	}
	if wait <= 0 {
		wait = 5 * time.Second
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
				// The beat carries the cumulative telemetry snapshot as
				// its (otherwise empty) body — the JSON-wire twin of the
				// binary Stats frame.
				series := st.series()
				code, err := a.doJSON(sctx, "/v1/workers/"+reg.WorkerID+"/heartbeat", HeartbeatRequest{Series: &series}, nil, 2*hb)
				if err == nil && (code == http.StatusNotFound || code == http.StatusUnauthorized) {
					// Evicted, or the daemon's token rotated: end the
					// session. Run re-registers — and surfaces
					// ErrBadToken if the token truly no longer fits.
					cancel()
					return
				}
			}
		}
	}()
	for i := 0; i < a.cfg.Capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.leaseLoop(sctx, cancel, reg.WorkerID, wait)
		}()
	}
	wg.Wait()
}

// leaseLoop pulls and computes trials until the session ends.
func (a *Agent) leaseLoop(ctx context.Context, evicted context.CancelFunc, workerID string, wait time.Duration) {
	path := fmt.Sprintf("/v1/workers/%s/lease?waitMs=%d", workerID, wait.Milliseconds())
	for ctx.Err() == nil {
		var asg Assignment
		code, err := a.doJSON(ctx, path, nil, &asg, wait+10*time.Second)
		switch {
		case err == nil && code == http.StatusOK:
			a.runAssignment(ctx, evicted, workerID, asg)
		case err == nil && code == http.StatusNoContent:
			// No work right now; the server long-polled already, so poll
			// again immediately.
		case err == nil && (code == http.StatusNotFound || code == http.StatusUnauthorized):
			// Evicted or token rotated: end the session; Run's
			// re-register decides between rejoining and ErrBadToken.
			evicted()
			return
		default:
			// Transport failure (daemon restarting?) or a persistent
			// error status: back off instead of hammering the daemon.
			select {
			case <-ctx.Done():
			case <-time.After(500 * time.Millisecond):
			}
		}
	}
}

// runAssignment computes one leased trial body and commits the result.
// A lease the worker cannot finish or report is never left dangling:
// abandonment is committed to the daemon (which requeues the trial
// immediately), and if even that is unreachable the session ends so the
// stale registration stops heartbeating and eviction requeues the
// lease.
func (a *Agent) runAssignment(ctx context.Context, endSession context.CancelFunc, workerID string, asg Assignment) {
	tr := a.trainerFor(asg.Trainer)
	revoked := false
	var obs trainer.EpochObserver
	if asg.StreamEpochs {
		obs = trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
			if revoked {
				return nil
			}
			dir, ok := a.reportEpoch(ctx, workerID, asg, s)
			if !ok || dir.Revoked {
				// The lease is void (or the daemon unreachable): the
				// trainer cannot be interrupted mid-trial, so finish the
				// remaining epochs on the current configuration and let
				// the commit be rejected. The authoritative attempt runs
				// elsewhere.
				revoked = true
				return nil
			}
			return dir.Sys
		})
	}
	start := time.Now()
	res, err := runBody(tr, asg, obs)
	epochs := 0
	if res != nil {
		epochs = len(res.Epochs)
	}
	a.stats.Load().observeTrial(time.Since(start).Seconds(), epochs)
	req := CompleteRequest{Attempt: asg.Attempt}
	switch {
	case revoked:
		// The epoch stream tore (or the daemon revoked the lease): this
		// worker's copy is void, but the daemon must learn the trial
		// needs another worker NOW — a still-heartbeating worker would
		// otherwise hold the lease forever.
		a.cfg.Logf("worker: lease %s attempt %d abandoned mid-trial", asg.LeaseID, asg.Attempt)
		req.Abandoned = true
	case err != nil:
		req.Error = err.Error()
	default:
		req.Result = res
	}
	path := fmt.Sprintf("/v1/workers/%s/leases/%s/complete", workerID, asg.LeaseID)
	for attempt := 0; attempt < 3; attempt++ {
		code, err := a.doJSON(ctx, path, req, nil, 15*time.Second)
		if err == nil {
			if code == http.StatusConflict {
				a.cfg.Logf("worker: lease %s attempt %d superseded; result discarded", asg.LeaseID, asg.Attempt)
			}
			return // committed, requeued, rejected, or daemon-side terminal — all final
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	// The daemon is unreachable even for the commit: end the session so
	// this registration stops heartbeating and eviction requeues every
	// lease it held. Run re-registers when the daemon returns.
	a.cfg.Logf("worker: lease %s: commit unreachable; ending session so eviction requeues it", asg.LeaseID)
	endSession()
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
	return tr.RunWithCacheKey(asg.Workload, asg.Hyper, asg.Sys, asg.Seed, obs, asg.CacheKey)
}

// reportEpoch streams one epoch observation; ok is false when the lease
// should be treated as void.
func (a *Agent) reportEpoch(ctx context.Context, workerID string, asg Assignment, s trainer.EpochStats) (EpochDirective, bool) {
	path := fmt.Sprintf("/v1/workers/%s/leases/%s/epoch", workerID, asg.LeaseID)
	req := EpochReport{Attempt: asg.Attempt, Epoch: WireEpoch(s)}
	for attempt := 0; attempt < 3; attempt++ {
		var dir EpochDirective
		code, err := a.doJSON(ctx, path, req, &dir, 10*time.Second)
		if err == nil {
			if code != http.StatusOK {
				return EpochDirective{}, false
			}
			return dir, true
		}
		select {
		case <-ctx.Done():
			return EpochDirective{}, false
		case <-time.After(200 * time.Millisecond):
		}
	}
	// The pipelined controller must observe every epoch or its state
	// machine diverges from an in-process run; a trial that cannot
	// stream is abandoned, not run half-observed.
	return EpochDirective{}, false
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
// captured configuration. Caching keeps the synthetic corpus warm across
// trials of the same workload family.
func (a *Agent) trainerFor(tc TrainerConfig) *trainer.Runner {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tr, ok := a.trainers[tc]; ok {
		return tr
	}
	tr := tc.NewRunner()
	if tr.Parallelism == 0 && a.cfg.TrainParallelism > 0 {
		tr.Parallelism = a.cfg.TrainParallelism
	}
	if st := a.stats.Load(); st != nil {
		tr.InstrumentKernels(st.trainEpochSeconds, st.evalSeconds)
	}
	a.trainers[tc] = tr
	return tr
}

// doJSON POSTs in (nil for an empty body) to path and decodes a 200
// response into out. The returned code is valid when err is nil; err
// reports transport-level failures only. timeout > 0 bounds the whole
// round trip: the default transport has no deadline of its own, and a
// silently dead daemon connection (NAT expiry, powered-off host) must
// surface as a retryable error within the protocol's own cadence, not
// after TCP keepalive gives up minutes later.
func (a *Agent) doJSON(ctx context.Context, path string, in, out any, timeout time.Duration) (int, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			a.stats.Load().encodeError()
			return 0, fmt.Errorf("exec: encode %s: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Server+path, body)
	if err != nil {
		return 0, fmt.Errorf("exec: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if a.cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+a.cfg.Token)
	}
	hc := a.cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("exec: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			a.stats.Load().decodeError()
			return 0, fmt.Errorf("exec: decode %s: %w", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, nil
}
