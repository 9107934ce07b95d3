package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
)

// Errors of the remote execution plane.
var (
	// ErrUnknownWorker rejects calls from workers that never registered
	// or were evicted; the worker must re-register.
	ErrUnknownWorker = errors.New("exec: unknown or evicted worker")
	// ErrLeaseRevoked rejects epoch reports and commits whose lease was
	// reassigned (worker evicted) or voided (job cancelled). The caller's
	// copy of the trial is dead weight; the authoritative attempt lives
	// elsewhere. This is the at-most-once commit guard.
	ErrLeaseRevoked = errors.New("exec: lease revoked")
	// ErrDraining fails trials that cannot run because the backend is
	// shutting down: still-pending leases at drain start, in-flight
	// leases that outlive the drain deadline, and any batch submitted
	// after. Jobs carrying it turn failed — never silently lost.
	ErrDraining = errors.New("exec: execution plane draining: trial not run")
)

// RemoteConfig sizes the remote backend.
type RemoteConfig struct {
	// HeartbeatInterval is the beat cadence advertised to workers
	// (default 2s).
	HeartbeatInterval time.Duration
	// MissedHeartbeats is K: the stream's read deadline is K intervals,
	// renewed by every frame the worker sends, so a worker silent for K
	// intervals ends its session and is evicted, its leases requeued
	// (default 3).
	MissedHeartbeats int
	// Token, when non-empty, is the bearer token the stream upgrade
	// must present (Authorization: Bearer <token>).
	Token string
	// Wire is accepted and ignored; the stream is the only wire; delete
	// with the next benchmark PR.
	Wire string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.MissedHeartbeats <= 0 {
		c.MissedHeartbeats = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// leaseState is a lease's lifecycle: pending (queued, unassigned) ->
// leased (on a worker) -> done | failed. Eviction moves leased back to
// pending with the attempt bumped.
type leaseState int

const (
	leasePending leaseState = iota + 1
	leaseLeased
	leaseDone
	leaseFailed
)

// lease is one trial's execution record.
type lease struct {
	id      string
	trial   Trial
	attempt int
	state   leaseState
	worker  string // assigned worker id while leased
	result  *trainer.Result
	err     error
	done    chan struct{} // closed when the lease turns terminal
	// log holds what the observer answered, log[e-1] for epoch e, over
	// every attempt: the observer must see each epoch of the trial
	// exactly once or its state machine diverges from an in-process
	// run, so a redelivered report and a requeued attempt's replay are
	// answered from here. Nil for a trial without an observer.
	log []*params.SysConfig
	// cancelled marks a leased trial whose job gave up: the worker may
	// still finish and commit it (the salvage semantics of the local
	// pool), but any path that would otherwise requeue it — eviction,
	// worker abandonment — fails it with cancelErr instead.
	cancelled bool
	cancelErr error
}

func (l *lease) terminal() bool { return l.state == leaseDone || l.state == leaseFailed }

// workerState is a registry entry's lifecycle.
type workerState int

const (
	workerActive workerState = iota + 1
	workerEvicted
)

func (s workerState) String() string {
	if s == workerEvicted {
		return "evicted"
	}
	return "active"
}

// workerEntry is one registered worker.
type workerEntry struct {
	id       string
	name     string
	capacity int
	state    workerState
	lastBeat time.Time // when the stream last heard from it
	inflight map[string]*lease
	done     int
	// closeStream, when set, severs the worker's stream connection.
	// Eviction calls it so a worker evicted off its own reader (a failed
	// grant write, a test) does not keep a half-dead stream open; the
	// stream's reader unblocks and the session ends.
	closeStream func()
	// series is the last heartbeat-shipped cumulative telemetry
	// snapshot from this registration; the next snapshot is diffed
	// against it before folding into the fleet aggregates.
	series WorkerSeries
}

// Remote is the fleet execution backend: trials submitted by Run are
// queued as leases; registered pipetune-worker processes are granted
// them over their stream, report epoch observations back, and commit
// results exactly once. A worker whose stream falls silent is evicted and
// its leases requeued, so a job survives losing workers mid-trial.
//
// Remote is the daemon-side half of the protocol; the worker-side half
// is Agent. All methods are safe for concurrent use. The lease manager
// starts no goroutine and reads the clock only for Drain's deadline: its
// state moves only under r.mu, through the *Locked methods and the few
// that take the lock around one of them, so a test can drive any
// interleaving from one goroutine.
type Remote struct {
	cfg RemoteConfig

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*workerEntry
	leases  map[string]*lease
	pending []*lease // FIFO; eviction requeues go to the front
	// evictedOrder remembers eviction order so the registry retains only
	// the most recent casualties: a flapping worker re-registers under a
	// fresh id every time, and keeping every dead entry forever would
	// grow the registry — and every /healthz payload — without bound.
	evictedOrder []string
	nextWorker   int
	nextLease    int
	draining     bool
	closed       bool

	// met holds the execution plane's own registry and its resolved
	// handles; completed/requeued counts live in the registry (the single
	// source FleetStatus and /metrics both read), so one always exists.
	met *remoteMetrics
}

// NewRemote builds the backend.
func NewRemote(cfg RemoteConfig) *Remote {
	r := &Remote{
		cfg:     cfg.withDefaults(),
		workers: make(map[string]*workerEntry),
		leases:  make(map[string]*lease),
	}
	r.cond = sync.NewCond(&r.mu)
	r.met = newRemoteMetrics(metrics.NewRegistry())
	return r
}

// MetricsRegistry returns the registry the execution plane reports
// into; the embedding service publishes into it too, so the daemon has
// one namespace.
func (r *Remote) MetricsRegistry() *metrics.Registry { return r.met.reg }

// Run implements Backend: each trial becomes a lease, workers compute
// them, and Run returns once every trial is terminal. maxParallel is
// ignored — aggregate worker capacity bounds fleet concurrency. With no
// workers registered, trials wait in the queue until a worker joins (or
// the context is cancelled); fleet emptiness is a health condition, not
// an error.
func (r *Remote) Run(ctx context.Context, trials []Trial, _ int) ([]*trainer.Result, []error) {
	r.mu.Lock()
	batch := r.enqueueLocked(trials)
	r.mu.Unlock()

	for _, l := range batch {
		select {
		case <-l.done:
		case <-ctx.Done():
			// The job gave up. Mirror the local pool's cancellation
			// granularity: trials not yet on a worker fail immediately
			// with the context's error, while trials already computing
			// run to completion and commit — their results are returned
			// so the caller can salvage their knowledge. A computing
			// trial that can no longer finish (worker dies) fails
			// instead of requeueing.
			r.mu.Lock()
			r.abandonLocked(batch, ctx.Err())
			r.mu.Unlock()
			<-l.done
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	return r.collectLocked(batch)
}

// enqueueLocked turns a batch of trials into pending leases, in order.
// A draining or closed plane takes none: every lease it returns is
// already failed with ErrDraining. Callers hold r.mu.
func (r *Remote) enqueueLocked(trials []Trial) []*lease {
	batch := make([]*lease, len(trials))
	slab := make([]lease, len(trials)) // one allocation per batch, not one per trial
	for i, t := range trials {
		l := &slab[i]
		*l = lease{trial: t, attempt: 1, state: leasePending, done: make(chan struct{})}
		batch[i] = l
		if r.closed || r.draining {
			r.terminalizeLocked(l, nil, ErrDraining)
			continue
		}
		r.nextLease++
		l.id = leaseName(r.nextLease)
		r.leases[l.id] = l
		r.pending = append(r.pending, l)
	}
	r.cond.Broadcast()
	return batch
}

// collectLocked reads a terminal batch's outcomes and forgets its leases:
// a late commit for one of them is acked as superseded. Callers hold r.mu.
func (r *Remote) collectLocked(batch []*lease) ([]*trainer.Result, []error) {
	results := make([]*trainer.Result, len(batch))
	errs := make([]error, len(batch))
	for i, l := range batch {
		results[i], errs[i] = l.result, l.err
		delete(r.leases, l.id)
	}
	return results, errs
}

// abandonLocked handles a cancelled Run: pending leases fail now (they
// never started computing), leased ones are marked cancelled — the worker
// may finish and commit them, but requeue paths fail them with err.
// Callers hold r.mu.
func (r *Remote) abandonLocked(batch []*lease, err error) {
	for _, l := range batch {
		if l.terminal() {
			continue
		}
		if l.state == leasePending {
			r.removePendingLocked(l)
			r.terminalizeLocked(l, nil, err)
			continue
		}
		l.cancelled = true
		l.cancelErr = err
	}
	r.cond.Broadcast()
}

// removePendingLocked drops a lease from the pending queue. Callers hold
// r.mu.
func (r *Remote) removePendingLocked(l *lease) {
	for i, p := range r.pending {
		if p == l {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

// leaseName formats the old "ls-%06d" id without fmt's
// reflection-driven allocations (three per Sprintf on this path).
func leaseName(n int) string { return paddedID('l', 's', n) }

// workerName formats "w-%06d" ids the same way.
func workerName(n int) string { return paddedID('w', 0, n) }

func paddedID(a, b byte, n int) string {
	buf := make([]byte, 0, 16)
	buf = append(buf, a)
	if b != 0 {
		buf = append(buf, b)
	}
	buf = append(buf, '-')
	head := len(buf)
	buf = strconv.AppendInt(buf, int64(n), 10)
	if d := len(buf) - head; d < 6 {
		buf = append(buf, "000000"[:6-d]...)
		copy(buf[head+6-d:], buf[head:head+d])
		copy(buf[head:], "000000"[:6-d])
	}
	return string(buf)
}

// terminalizeLocked moves a lease to its terminal state and releases its
// worker slot. Callers hold r.mu. The broadcast wakes the granters
// whose worker just gained a free slot.
func (r *Remote) terminalizeLocked(l *lease, res *trainer.Result, err error) {
	if l.terminal() {
		return
	}
	l.result, l.err = res, err
	if err != nil {
		l.state = leaseFailed
	} else {
		l.state = leaseDone
		r.met.completed.Inc()
	}
	if l.worker != "" {
		if w := r.workers[l.worker]; w != nil {
			delete(w.inflight, l.id)
		}
		l.worker = ""
	}
	close(l.done)
	r.cond.Broadcast()
}

// register admits a worker to the fleet and assigns its id. Workers may
// register while the backend drains — they will simply receive no
// leases.
func (r *Remote) register(name string, capacity int) (workerID string, err error) {
	if capacity < 1 {
		capacity = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", ErrDraining
	}
	r.nextWorker++
	w := &workerEntry{
		id:       workerName(r.nextWorker),
		name:     name,
		capacity: capacity,
		state:    workerActive,
		inflight: make(map[string]*lease),
	}
	r.workers[w.id] = w
	r.cond.Broadcast()
	r.cfg.Logf("exec: worker %s (%q, capacity %d) registered", w.id, w.name, w.capacity)
	return w.id, nil
}

// claimLocked moves up to limit pending leases, bounded by the worker's
// free slots, onto w and returns them (a view of the queue's old head,
// valid until r.mu is released). Non-blocking: an empty claim means no
// work or no slot right now. Callers hold r.mu and have checked that w
// is active and the plane is neither draining nor closed.
func (r *Remote) claimLocked(w *workerEntry, limit int) []*lease {
	n := min(limit, w.capacity-len(w.inflight), len(r.pending))
	if n <= 0 {
		return nil
	}
	claim := r.pending[:n:n]
	r.pending = r.pending[n:]
	for _, l := range claim {
		l.state = leaseLeased
		l.worker = w.id
		w.inflight[l.id] = l
	}
	r.met.leaseGrants.Add(uint64(n))
	return claim
}

// reportEpoch relays one epoch-boundary observation to the trial's
// observer (PipeTune's pipelined controller, running daemon-side) and
// returns its directive. A revoked directive tells the worker to abandon
// the trial. The lease id arrives as a view into the frame buffer, and
// indexing the map through string(leaseID) lets the compiler skip the
// string allocation.
func (r *Remote) reportEpoch(workerID string, leaseID []byte, attempt int, s trainer.EpochStats) (EpochDirective, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.leases[string(leaseID)]
	w := r.workers[workerID]
	if w == nil || w.state != workerActive {
		return EpochDirective{Revoked: true}, ErrUnknownWorker
	}
	if l == nil || l.state != leaseLeased || l.worker != workerID || l.attempt != attempt {
		return EpochDirective{Revoked: true}, nil
	}
	if l.trial.Observer == nil {
		return EpochDirective{}, nil
	}
	// These are checks on bytes a remote peer controls. An epoch the log
	// holds — redelivered, or replayed by a requeued attempt, which runs
	// the same body on the same Sys and so reproduces it bit for bit — is
	// answered from the log. The next epoch goes to the observer. Any
	// other report is dropped (empty directive, no observer call):
	// delivering it would feed the controller an out-of-order
	// observation.
	if s.Epoch >= 1 && s.Epoch <= len(l.log) {
		return EpochDirective{Sys: l.log[s.Epoch-1]}, nil
	}
	if s.Epoch != len(l.log)+1 {
		return EpochDirective{}, nil
	}
	// The observer runs UNDER the backend lock, deliberately: the check,
	// the delivery and the append must be atomic with requeue, or a
	// replay could reach the observer a second time. Observers are
	// contractually cheap (the OnTrialDone/observer hooks already run
	// inside the scheduling loop on the local path) and never call back
	// into the backend, so the lock ordering stays one-directional.
	next := l.trial.Observer.OnEpochEnd(l.trial.Seed, l.trial.Workload, l.trial.Hyper, s)
	if l.log == nil {
		l.log = make([]*params.SysConfig, 0, max(l.trial.Hyper.Epochs, 1))
	}
	l.log = append(l.log, next)
	return EpochDirective{Sys: next}, nil
}

// complete commits a finished trial body — at most once: the lease must
// still be assigned to this worker at this attempt. A lease already
// terminal and forgotten, evicted-and-requeued leases, cancelled jobs
// and duplicate commits all land in ErrLeaseRevoked, and the stale
// result is discarded; a known lease committed by an evicted worker is
// ErrUnknownWorker. leaseID is a frame view, as in reportEpoch.
func (r *Remote) complete(workerID string, leaseID []byte, attempt int, res *trainer.Result, errMsg string, abandoned bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.leases[string(leaseID)]
	if l == nil {
		return ErrLeaseRevoked
	}
	w := r.workers[workerID]
	if w == nil || w.state != workerActive {
		return ErrUnknownWorker
	}
	if l.state != leaseLeased || l.worker != workerID || l.attempt != attempt {
		return ErrLeaseRevoked
	}
	switch {
	case abandoned:
		// The worker cannot finish (torn epoch stream): hand the trial
		// to another worker now instead of waiting for this worker's
		// eviction.
		delete(w.inflight, l.id)
		r.met.commits.With("abandoned").Inc()
		r.requeueLocked(l)
		return nil
	case errMsg != "":
		r.met.commits.With("failed").Inc()
		r.terminalizeLocked(l, nil, fmt.Errorf("exec: worker %s: %s", workerID, errMsg))
	default:
		if res != nil {
			r.met.commits.With("committed").Inc()
			r.terminalizeLocked(l, res, nil)
		} else {
			r.met.commits.With("empty").Inc()
			r.terminalizeLocked(l, nil, fmt.Errorf("exec: worker %s committed an empty result", workerID))
		}
	}
	w.done++
	return nil
}

// requeueLocked gives a leased trial a fresh attempt at the head of the
// queue — unless its job already gave up (fail with the job's error) or
// the plane is draining (fail with ErrDraining; no lease will ever be
// issued again). The lease keeps its log, so the replacement attempt's
// replayed epochs are answered as the first attempt's were. Callers hold
// r.mu and have already detached the lease from its worker's inflight
// set.
func (r *Remote) requeueLocked(l *lease) {
	l.worker = ""
	switch {
	case l.cancelled:
		r.terminalizeLocked(l, nil, l.cancelErr)
		return
	case r.draining || r.closed:
		r.terminalizeLocked(l, nil, ErrDraining)
		return
	}
	if l.attempt >= maxLeaseAttempts {
		// A trial that keeps losing its worker is more likely killing
		// them (a poison body) than unlucky: requeueing it again would
		// serially destroy the fleet. Fail the trial — and with it the
		// job — with a diagnosis instead.
		r.terminalizeLocked(l, nil, fmt.Errorf(
			"exec: trial %d lost its worker %d times (poison trial or unstable fleet)",
			l.trial.ID, l.attempt))
		return
	}
	l.attempt++
	l.state = leasePending
	r.pending = append([]*lease{l}, r.pending...)
	r.met.requeues.Inc()
	r.cond.Broadcast()
}

// maxLeaseAttempts bounds how many workers one trial may consume before
// it is declared poison and failed.
const maxLeaseAttempts = 5

// evictLocked removes a worker from duty and requeues its in-flight
// leases via requeueLocked (attempt bumped — late reports from the
// evicted worker no longer match and are rejected; cancelled or
// draining trials fail instead of requeueing). Callers hold r.mu.
func (r *Remote) evictLocked(w *workerEntry, why string) {
	w.state = workerEvicted
	r.met.evictions.Inc()
	if w.closeStream != nil {
		// Sever the stream: the session's reader unblocks and the worker
		// reconnects under a new id.
		w.closeStream()
		w.closeStream = nil
	}
	requeued := 0
	for id, l := range w.inflight {
		delete(w.inflight, id)
		if l.terminal() {
			continue
		}
		r.requeueLocked(l)
		if l.state == leasePending {
			requeued++
		}
	}
	// Keep the last few evicted entries for operator debugging, not all
	// of them forever.
	r.evictedOrder = append(r.evictedOrder, w.id)
	for len(r.evictedOrder) > maxEvictedRetained {
		delete(r.workers, r.evictedOrder[0])
		r.evictedOrder = r.evictedOrder[1:]
	}
	// Wake the worker's granter (and anything waiting on its slots) so it
	// observes the eviction even when no lease was requeued.
	r.cond.Broadcast()
	r.cfg.Logf("exec: worker %s (%q) evicted (%s), %d lease(s) requeued", w.id, w.name, why, requeued)
}

// maxEvictedRetained bounds how many evicted registry entries the fleet
// surfaces keep showing.
const maxEvictedRetained = 32

// Drain shuts the execution plane down gracefully: lease issuance stops
// immediately; still-pending trials fail at once (no worker will ever
// receive them); in-flight trials get up to timeout to commit; whatever
// remains after the deadline fails with ErrDraining. Jobs waiting on a
// failed trial turn failed — undrained work is reported, never silently
// lost. Idempotent.
func (r *Remote) Drain(timeout time.Duration) {
	r.mu.Lock()
	if !r.draining {
		r.cfg.Logf("exec: draining (timeout %v): %d in-flight lease(s)", timeout, r.leasedCountLocked())
		r.drainLocked()
	}
	var inflight []*lease
	for _, l := range r.leases {
		if !l.terminal() {
			inflight = append(inflight, l)
		}
	}
	r.mu.Unlock()

	// No lease turns pending again while draining (requeues fail), so
	// waiting on the in-flight set is waiting on everything.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
wait:
	for _, l := range inflight {
		select {
		case <-l.done:
		case <-deadline.C:
			break wait
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.failOutstandingLocked()
}

// drainLocked stops lease issuance: queued leases fail with ErrDraining
// (no worker will ever be granted them) and the granters stop claiming.
// Callers hold r.mu.
func (r *Remote) drainLocked() {
	r.draining = true
	for _, l := range r.pending {
		r.terminalizeLocked(l, nil, ErrDraining)
	}
	r.pending = nil
	r.cond.Broadcast()
}

// failOutstandingLocked fails every lease that is not yet terminal —
// in flight past the drain deadline, or still live at Close — with
// ErrDraining. Callers hold r.mu.
func (r *Remote) failOutstandingLocked() {
	for _, l := range r.leases {
		if !l.terminal() {
			r.terminalizeLocked(l, nil, ErrDraining)
		}
	}
	r.pending = nil
}

// leasedCountLocked counts leases currently on workers. Callers hold
// r.mu.
func (r *Remote) leasedCountLocked() int {
	n := 0
	for _, l := range r.leases {
		if l.state == leaseLeased {
			n++
		}
	}
	return n
}

// Close fails anything still outstanding and severs every stream. Call
// after Drain (or alone, for an abrupt stop). Idempotent.
func (r *Remote) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.failOutstandingLocked()
	// Sever every stream so blocked session readers unwind; their
	// workers' reconnect attempts are refused while closed. The workers
	// are evicted already, so an unwinding reader's eviction is a no-op:
	// nothing is logged after Close.
	for _, w := range r.workers {
		w.state = workerEvicted
		if w.closeStream != nil {
			w.closeStream()
			w.closeStream = nil
		}
	}
	r.cond.Broadcast()
}

// Fleet snapshots the execution plane for health surfaces, workers
// sorted by id (evicted entries included — an operator debugging a lost
// worker wants to see it).
func (r *Remote) Fleet() FleetStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := FleetStatus{
		Draining:        r.draining,
		PendingTrials:   len(r.pending),
		LeasedTrials:    r.leasedCountLocked(),
		CompletedTrials: int(r.met.completed.Value()),
		RequeuedTrials:  int(r.met.requeues.Value()),
	}
	for _, w := range r.workers {
		fs.Workers = append(fs.Workers, WorkerStatus{
			ID:            w.id,
			Name:          w.name,
			State:         w.state.String(),
			Capacity:      w.capacity,
			Inflight:      len(w.inflight),
			TrialsDone:    w.done,
			LastHeartbeat: w.lastBeat,
		})
	}
	sort.Slice(fs.Workers, func(i, j int) bool { return fs.Workers[i].ID < fs.Workers[j].ID })
	return fs
}
