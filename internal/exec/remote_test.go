package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// newTestRemote builds a backend for tests that drive the lease manager
// directly: with no stream there is no read deadline, so a worker leaves
// only when the test evicts it.
func newTestRemote(t *testing.T) *Remote {
	t.Helper()
	r := NewRemote(RemoteConfig{})
	t.Cleanup(r.Close)
	return r
}

// waitFor parks on r.cond until cond — called with r.mu held — holds,
// failing the test after 5s.
func waitFor(t *testing.T, r *Remote, what string, cond func() bool) {
	t.Helper()
	expired := false
	wake := time.AfterFunc(5*time.Second, func() {
		r.mu.Lock()
		expired = true
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer wake.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !cond() {
		if expired {
			t.Fatalf("timed out waiting for %s", what)
		}
		r.cond.Wait()
	}
}

// fakeResult fabricates a completed trial body.
func fakeResult(d float64) *trainer.Result {
	return &trainer.Result{
		Workload: workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
		Accuracy: 0.5,
		Duration: d,
		Epochs: []trainer.EpochStats{
			{Epoch: 0, Init: true, Duration: d / 2, EndTime: d / 2},
			{Epoch: 1, Duration: d / 2, EndTime: d},
		},
	}
}

func mkTrials(n int) []Trial {
	out := make([]Trial, n)
	for i := range out {
		out[i] = Trial{
			ID:       i,
			Workload: workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
			Hyper:    params.DefaultHyper(),
			Sys:      params.DefaultSysConfig(),
			Seed:     uint64(i + 1),
		}
	}
	return out
}

// runAsync starts Run in the background and returns a channel with its
// outcome.
type runOutcome struct {
	results []*trainer.Result
	errs    []error
}

func runAsync(ctx context.Context, r *Remote, trials []Trial) <-chan runOutcome {
	ch := make(chan runOutcome, 1)
	go func() {
		res, errs := r.Run(ctx, trials, 0)
		ch <- runOutcome{res, errs}
	}()
	return ch
}

// tryLease claims one lease for the worker the way its granter would
// (claimLocked, same state checks), without blocking: nil means no work
// or no free slot right now.
func tryLease(r *Remote, workerID string) (*Assignment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return tryLeaseLocked(r, workerID)
}

func tryLeaseLocked(r *Remote, workerID string) (*Assignment, error) {
	w := r.workers[workerID]
	if w == nil || w.state != workerActive {
		return nil, ErrUnknownWorker
	}
	if r.draining || r.closed {
		return nil, ErrDraining
	}
	claim := r.claimLocked(w, 1)
	if len(claim) == 0 {
		return nil, nil
	}
	l := claim[0]
	return &Assignment{LeaseID: l.id, Attempt: l.attempt, Seed: l.trial.Seed, StreamEpochs: l.trial.Observer != nil}, nil
}

// leaseOne is tryLease parked on r.cond until work arrives, failing the
// test on error or after 5s.
func leaseOne(t *testing.T, r *Remote, workerID string) *Assignment {
	t.Helper()
	var asg *Assignment
	waitFor(t, r, "a lease for "+workerID, func() bool {
		var err error
		if asg, err = tryLeaseLocked(r, workerID); err != nil {
			t.Fatalf("lease for %s: %v", workerID, err)
		}
		return asg != nil
	})
	return asg
}

// register admits a worker and returns its id.
func register(t *testing.T, r *Remote, name string, capacity int) string {
	t.Helper()
	id, err := r.register(name, capacity)
	if err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	return id
}

// commit and reportEpoch drive the two inbound lease operations with the
// frame-view lease id the stream dispatcher passes.
func commit(r *Remote, workerID string, asg *Assignment, attempt int, res *trainer.Result) error {
	return r.complete(workerID, []byte(asg.LeaseID), attempt, res, "", false)
}

func reportEpoch(r *Remote, workerID string, asg *Assignment, attempt, epoch int) (EpochDirective, error) {
	return r.reportEpoch(workerID, []byte(asg.LeaseID), attempt, trainer.EpochStats{Epoch: epoch})
}

// epochObserver records the epochs it is fed and answers epoch e with a
// configuration of e cores, so a directive names the epoch that earned it.
func epochObserver(observed *[]int) trainer.EpochObserver {
	return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		*observed = append(*observed, s.Epoch)
		return &params.SysConfig{Cores: s.Epoch, MemoryGB: 8}
	})
}

// reportEpochs reports epochs from..to of asg at its attempt and requires
// each to be answered with the directive epochObserver gave that epoch.
func reportEpochs(t *testing.T, r *Remote, workerID string, asg *Assignment, from, to int) {
	t.Helper()
	for ep := from; ep <= to; ep++ {
		dir, err := reportEpoch(r, workerID, asg, asg.Attempt, ep)
		if err != nil || dir.Revoked || dir.Sys == nil || dir.Sys.Cores != ep {
			t.Fatalf("attempt %d, epoch %d: dir=%+v err=%v, want the directive the observer gave epoch %d",
				asg.Attempt, ep, dir, err, ep)
		}
	}
}

func TestRemoteLeaseLifecycle(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(2))

	w := register(t, r, "w1", 1)
	for i := 0; i < 2; i++ {
		asg := leaseOne(t, r, w)
		if asg.Attempt != 1 {
			t.Fatalf("fresh lease attempt = %d, want 1", asg.Attempt)
		}
		if err := commit(r, w, asg, asg.Attempt, fakeResult(float64(asg.Seed))); err != nil {
			t.Fatalf("complete %s: %v", asg.LeaseID, err)
		}
	}
	out := <-done
	for i, err := range out.errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	for i, res := range out.results {
		if res == nil || res.Duration != float64(i+1) {
			t.Fatalf("trial %d result = %+v, want duration %d", i, res, i+1)
		}
	}
	fs := r.Fleet()
	if fs.CompletedTrials != 2 || fs.PendingTrials != 0 || fs.LeasedTrials != 0 {
		t.Fatalf("fleet after completion: %+v", fs)
	}
}

// TestRemoteCapacityBound pins that a worker never holds more leases
// than its capacity.
func TestRemoteCapacityBound(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(3))

	w := register(t, r, "w1", 2)
	a1 := leaseOne(t, r, w)
	a2 := leaseOne(t, r, w)
	if asg, err := tryLease(r, w); err != nil || asg != nil {
		t.Fatalf("third lease on capacity-2 worker: asg=%v err=%v, want none", asg, err)
	}
	for _, asg := range []*Assignment{a1, a2} {
		if err := commit(r, w, asg, asg.Attempt, fakeResult(1)); err != nil {
			t.Fatal(err)
		}
	}
	a3 := leaseOne(t, r, w)
	if err := commit(r, w, a3, a3.Attempt, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestRemoteEvictionRequeuesMidTrial is the worker-crash regression: a
// worker leases a trial and is evicted mid-trial, the lease is requeued,
// a second worker replays the trial and the job gets the right result.
// The replayed epochs are answered from the lease's log without reaching
// the observer again; the dead worker's late commit is rejected —
// at-most-once.
func TestRemoteEvictionRequeuesMidTrial(t *testing.T) {
	r := newTestRemote(t)

	var observed []int
	trials := mkTrials(1)
	trials[0].Observer = epochObserver(&observed)
	done := runAsync(context.Background(), r, trials)

	w1 := register(t, r, "dies", 1)
	asg1 := leaseOne(t, r, w1)
	reportEpochs(t, r, w1, asg1, 1, 2)

	// w1's stream ends (TestStreamSilenceEvicts drives that over a real
	// socket).
	r.evictWorker(w1, "stream closed")
	fs := r.Fleet()
	if len(fs.Workers) != 1 || fs.Workers[0].State != "evicted" {
		t.Fatalf("worker not evicted: %+v", fs.Workers)
	}
	if fs.RequeuedTrials != 1 || fs.PendingTrials != 1 {
		t.Fatalf("lease not requeued: %+v", fs)
	}

	// The replacement picks the lease up at the next attempt, replays
	// epochs 1 and 2 from the log and goes on to epoch 3.
	w2 := register(t, r, "survives", 1)
	asg2 := leaseOne(t, r, w2)
	if asg2.LeaseID != asg1.LeaseID || asg2.Attempt != 2 {
		t.Fatalf("requeued lease = %s attempt %d, want %s attempt 2", asg2.LeaseID, asg2.Attempt, asg1.LeaseID)
	}
	reportEpochs(t, r, w2, asg2, 1, 3)
	if fmt.Sprint(observed) != "[1 2 3]" {
		t.Fatalf("observer saw %v, want [1 2 3]: each epoch once across attempts", observed)
	}

	// The dead worker wakes up and tries to commit its stale copy.
	if err := commit(r, w1, asg1, asg1.Attempt, fakeResult(99)); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("evicted worker's commit: %v, want ErrUnknownWorker", err)
	}
	// Even a still-active worker with the stale attempt is rejected.
	if err := commit(r, w2, asg2, 1, fakeResult(99)); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("stale-attempt commit: %v, want ErrLeaseRevoked", err)
	}

	if err := commit(r, w2, asg2, 2, fakeResult(7)); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.errs[0] != nil {
		t.Fatalf("trial failed: %v", out.errs[0])
	}
	if out.results[0].Duration != 7 {
		t.Fatalf("job got duration %v, want the surviving worker's 7", out.results[0].Duration)
	}
}

// TestRemoteDuplicateCommit pins that a retried commit (torn response)
// cannot double-apply: the first wins, the second is rejected, the
// result is unchanged.
func TestRemoteDuplicateCommit(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(1))
	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	if err := commit(r, w, asg, 1, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	if err := commit(r, w, asg, 1, fakeResult(2)); !errors.Is(err, ErrLeaseRevoked) {
		t.Fatalf("duplicate commit: %v, want ErrLeaseRevoked", err)
	}
	out := <-done
	if out.results[0].Duration != 1 {
		t.Fatalf("duplicate commit overwrote the result: %v", out.results[0].Duration)
	}
}

// TestRemoteObserverStreaming pins the pipelined-tuning path: epoch
// reports reach the trial's observer and its directives flow back.
func TestRemoteObserverStreaming(t *testing.T) {
	r := newTestRemote(t)
	var observed []int
	next := params.SysConfig{Cores: 16, MemoryGB: 32}
	trials := mkTrials(1)
	trials[0].Observer = trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		observed = append(observed, s.Epoch)
		if s.Epoch == 1 {
			return &next
		}
		return nil
	})
	done := runAsync(context.Background(), r, trials)

	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	if !asg.StreamEpochs {
		t.Fatal("observed trial not marked StreamEpochs")
	}
	dir, err := reportEpoch(r, w, asg, 1, 1)
	if err != nil || dir.Revoked {
		t.Fatalf("epoch 1 report: dir=%+v err=%v", dir, err)
	}
	if dir.Sys == nil || *dir.Sys != next {
		t.Fatalf("epoch 1 directive = %+v, want switch to %v", dir.Sys, next)
	}
	// A redelivered report (the agent retries when a response is lost)
	// is answered from the log: the observer must not advance twice.
	dup, err := reportEpoch(r, w, asg, 1, 1)
	if err != nil || dup.Sys == nil || *dup.Sys != next {
		t.Fatalf("duplicate epoch 1 report: dir=%+v err=%v, want the logged directive", dup, err)
	}
	dir, err = reportEpoch(r, w, asg, 1, 2)
	if err != nil || dir.Revoked || dir.Sys != nil {
		t.Fatalf("epoch 2 report: dir=%+v err=%v", dir, err)
	}
	// A stale attempt's report is answered with a revocation, not relayed.
	if dir, _ := reportEpoch(r, w, asg, 99, 3); !dir.Revoked {
		t.Fatalf("stale report not revoked: %+v", dir)
	}
	if err := commit(r, w, asg, 1, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	<-done
	if len(observed) != 2 || observed[0] != 1 || observed[1] != 2 {
		t.Fatalf("observer saw epochs %v, want [1 2]", observed)
	}
}

// TestRemoteDrain pins the graceful-shutdown contract: pending trials
// fail immediately, in-flight trials may commit within the deadline,
// whatever outlives it fails with ErrDraining, and new batches are
// refused.
func TestRemoteDrain(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(3))

	w := register(t, r, "w1", 2)
	asgA := leaseOne(t, r, w)
	leaseOne(t, r, w) // trial 2 stays pending

	drained := make(chan struct{})
	go func() {
		r.Drain(400 * time.Millisecond)
		close(drained)
	}()

	// In-flight work may still commit during the drain window...
	waitFor(t, r, "the drain to start", func() bool { return r.draining })
	if err := commit(r, w, asgA, 1, fakeResult(1)); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	// ...while the second lease is abandoned (the worker never commits it).
	<-drained

	out := <-done
	if out.errs[0] != nil {
		t.Fatalf("drained-in-time trial failed: %v", out.errs[0])
	}
	if !errors.Is(out.errs[1], ErrDraining) {
		t.Fatalf("undrained in-flight trial: %v, want ErrDraining", out.errs[1])
	}
	if !errors.Is(out.errs[2], ErrDraining) {
		t.Fatalf("pending trial at drain: %v, want ErrDraining", out.errs[2])
	}
	// No leases are issued once draining.
	if asg, err := tryLease(r, w); !errors.Is(err, ErrDraining) || asg != nil {
		t.Fatalf("lease while draining: asg=%v err=%v, want ErrDraining", asg, err)
	}
	// New batches are refused outright.
	_, errs := r.Run(context.Background(), mkTrials(1), 0)
	if !errors.Is(errs[0], ErrDraining) {
		t.Fatalf("post-drain batch: %v, want ErrDraining", errs[0])
	}
}

// TestRemoteRunCancellation pins job-cancel semantics, mirroring the
// local pool's granularity: pending leases die instantly with the
// context's error, while a trial already computing runs to completion
// and its commit is salvaged — exactly the knowledge-preservation path
// tune's OnTrialDone relies on.
func TestRemoteRunCancellation(t *testing.T) {
	r := newTestRemote(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := runAsync(ctx, r, mkTrials(2))

	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	cancel()
	// The in-flight trial keeps streaming and may still commit.
	if dir, err := reportEpoch(r, w, asg, 1, 1); err != nil || dir.Revoked {
		t.Fatalf("cancelled-but-computing lease's epoch report: dir=%+v err=%v", dir, err)
	}
	if err := commit(r, w, asg, 1, fakeResult(5)); err != nil {
		t.Fatalf("salvage commit after cancel: %v", err)
	}
	out := <-done
	if out.errs[0] != nil || out.results[0] == nil || out.results[0].Duration != 5 {
		t.Fatalf("in-flight trial not salvaged: res=%v err=%v", out.results[0], out.errs[0])
	}
	if !errors.Is(out.errs[1], context.Canceled) {
		t.Fatalf("pending trial after cancel: %v, want context.Canceled", out.errs[1])
	}
}

// TestRemoteCancelledLeaseFailsInsteadOfRequeueing pins the other half
// of cancellation: a cancelled in-flight trial whose worker dies (or
// abandons) must fail with the job's error — requeueing it would burn a
// worker on a job nobody is waiting for.
func TestRemoteCancelledLeaseFailsInsteadOfRequeueing(t *testing.T) {
	r := newTestRemote(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := runAsync(ctx, r, mkTrials(1))

	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	cancel()
	// Wait for Run's abandon to mark the lease before evicting; an
	// eviction racing ahead of the cancellation requeues first and the
	// abandon then fails the pending lease — same outcome, but this test
	// pins the direct fail-instead-of-requeue path.
	waitFor(t, r, "the cancellation to mark the lease", func() bool {
		l := r.leases[asg.LeaseID]
		return l != nil && l.cancelled
	})
	r.evictWorker(w, "stream closed")
	out := <-done
	if !errors.Is(out.errs[0], context.Canceled) {
		t.Fatalf("cancelled lease after eviction: %v, want context.Canceled", out.errs[0])
	}
	if fs := r.Fleet(); fs.RequeuedTrials != 0 || fs.PendingTrials != 0 {
		t.Fatalf("cancelled lease was requeued: %+v", fs)
	}
}

// TestRemoteAbandonedCommitRequeues pins the worker-side give-up path:
// a worker whose epoch stream tore commits {abandoned}, the daemon
// requeues the lease immediately (attempt bumped, log kept), and another
// worker finishes the trial — no waiting for the abandoning worker's
// eviction, and no epoch reaches the observer twice.
func TestRemoteAbandonedCommitRequeues(t *testing.T) {
	r := newTestRemote(t)
	var observed []int
	trials := mkTrials(1)
	trials[0].Observer = epochObserver(&observed)
	done := runAsync(context.Background(), r, trials)

	w1 := register(t, r, "gives-up", 1)
	asg1 := leaseOne(t, r, w1)
	reportEpochs(t, r, w1, asg1, 1, 1)
	if err := r.complete(w1, []byte(asg1.LeaseID), 1, nil, "", true); err != nil {
		t.Fatalf("abandon commit: %v", err)
	}
	fs := r.Fleet()
	if fs.RequeuedTrials != 1 || fs.PendingTrials != 1 {
		t.Fatalf("abandoned lease not requeued: %+v", fs)
	}
	// The abandoning worker stays active (it is healthy, just lost one
	// trial) and could even take the lease back at the next attempt.
	w2 := register(t, r, "finisher", 1)
	asg2 := leaseOne(t, r, w2)
	if asg2.LeaseID != asg1.LeaseID || asg2.Attempt != 2 {
		t.Fatalf("requeued lease = %s attempt %d, want %s attempt 2", asg2.LeaseID, asg2.Attempt, asg1.LeaseID)
	}
	reportEpochs(t, r, w2, asg2, 1, 2)
	if fmt.Sprint(observed) != "[1 2]" {
		t.Fatalf("observer saw %v, want [1 2]: the replayed epoch 1 answered from the log", observed)
	}
	if err := commit(r, w2, asg2, 2, fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.errs[0] != nil || out.results[0].Duration != 3 {
		t.Fatalf("trial after abandonment: res=%v err=%v", out.results[0], out.errs[0])
	}
}

// TestRemoteWorkerError pins that a worker-side trial failure fails the
// trial (and with it the job), rather than hanging the batch.
func TestRemoteWorkerError(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(1))
	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	if err := r.complete(w, []byte(asg.LeaseID), 1, nil, "boom", false); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.errs[0] == nil || out.results[0] != nil {
		t.Fatalf("worker-side failure not propagated: res=%v err=%v", out.results[0], out.errs[0])
	}
}

// TestRemoteConcurrentLeaseCompleteHeartbeat is the -race exercise of
// the lease manager: many workers lease, report and complete
// concurrently while batches run, workers get evicted and the fleet is
// snapshotted. TestLeaseSchedules checks the invariants of the same
// operations over seeded interleavings; this test is for the detector.
func TestRemoteConcurrentLeaseCompleteHeartbeat(t *testing.T) {
	r := newTestRemote(t)

	const (
		batches        = 4
		trialsPerBatch = 8
		workers        = 4
	)
	var committed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Each commit offers its worker to the churn goroutine, which evicts
	// every workers-th one it is offered: evictions race live lease
	// traffic, paced by progress instead of a clock, and stay too rare
	// for any trial to reach the attempt cap.
	churn := make(chan string, workers)

	// Worker fleet: lease/report/complete loops.
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reg, err := r.register(fmt.Sprintf("w%d", i), 2)
			if err != nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				asg, err := tryLease(r, reg)
				if err != nil {
					// Evicted by the churn goroutine: re-register.
					reg, err = r.register(fmt.Sprintf("w%d", i), 2)
					if err != nil {
						return
					}
					continue
				}
				if asg == nil {
					continue
				}
				if _, err := reportEpoch(r, reg, asg, asg.Attempt, 1); err != nil {
					continue
				}
				if err := commit(r, reg, asg, asg.Attempt, fakeResult(1)); err == nil {
					committed.Add(1)
					select {
					case churn <- reg:
					default:
					}
				}
			}
		}(i)
	}
	// Churn: evict, racing eviction against live lease traffic, and
	// snapshot the fleet concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case reg := <-churn:
				if n%workers == 0 {
					r.evictWorker(reg, "churn")
				}
				_ = r.Fleet()
			}
		}
	}()

	var batchWG sync.WaitGroup
	for b := 0; b < batches; b++ {
		batchWG.Add(1)
		go func() {
			defer batchWG.Done()
			results, errs := r.Run(context.Background(), mkTrials(trialsPerBatch), 0)
			for i := range errs {
				if errs[i] == nil && results[i] == nil {
					t.Error("nil result without error")
				}
			}
		}()
	}
	batchWG.Wait()
	close(stop)
	wg.Wait()
	if committed.Load() < batches*trialsPerBatch {
		t.Fatalf("only %d commits for %d trials", committed.Load(), batches*trialsPerBatch)
	}
}

// TestRemoteEvictedRegistryBounded pins the registry-leak guard: a
// flapping worker mints a new id per re-registration, so only the most
// recent evicted entries may be retained for the fleet surfaces.
func TestRemoteEvictedRegistryBounded(t *testing.T) {
	r := newTestRemote(t)
	for i := 0; i < maxEvictedRetained+8; i++ {
		reg := register(t, r, fmt.Sprintf("flappy-%d", i), 1)
		r.evictWorker(reg, "stream closed")
		if _, err := tryLease(r, reg); !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("worker %d not evicted: %v", i, err)
		}
	}
	fs := r.Fleet()
	if len(fs.Workers) != maxEvictedRetained {
		t.Fatalf("registry retains %d evicted entries, want %d", len(fs.Workers), maxEvictedRetained)
	}
}

// TestRemotePoisonTrialFailsAfterAttemptCap pins the fleet-protection
// guard: a trial that serially loses its worker (a poison body crashing
// worker processes) is failed after maxLeaseAttempts requeues instead
// of consuming the fleet forever.
func TestRemotePoisonTrialFailsAfterAttemptCap(t *testing.T) {
	r := newTestRemote(t)
	done := runAsync(context.Background(), r, mkTrials(1))

	for i := 0; ; i++ {
		if i > maxLeaseAttempts {
			t.Fatalf("lease still being reissued after %d evictions", i)
		}
		w := register(t, r, fmt.Sprintf("victim-%d", i), 1)
		// Requeues are synchronous with the eviction, so after the first
		// lease (which waits for Run to queue the trial) a non-blocking
		// claim sees the reissued lease or none at all.
		var asg *Assignment
		if i == 0 {
			asg = leaseOne(t, r, w)
		} else {
			var err error
			if asg, err = tryLease(r, w); err != nil {
				t.Fatal(err)
			}
			if asg == nil {
				break // lease no longer reissued: the cap fired
			}
		}
		if asg.Attempt != i+1 {
			t.Fatalf("eviction %d: attempt %d, want %d", i, asg.Attempt, i+1)
		}
		r.evictWorker(w, "stream closed")
	}
	out := <-done
	if out.errs[0] == nil || !strings.Contains(out.errs[0].Error(), "lost its worker") {
		t.Fatalf("poison trial error = %v, want attempt-cap diagnosis", out.errs[0])
	}
}

// TestRemoteStaleEpochReportIgnored pins the out-of-order guard: a
// network-delayed report for an older epoch (its retry was already
// processed) is answered from the lease's log and never reaches the
// observer again, and a report that skips an epoch is dropped.
func TestRemoteStaleEpochReportIgnored(t *testing.T) {
	r := newTestRemote(t)
	var observed []int
	trials := mkTrials(1)
	trials[0].Observer = epochObserver(&observed)
	done := runAsync(context.Background(), r, trials)
	w := register(t, r, "w1", 1)
	asg := leaseOne(t, r, w)
	reportEpochs(t, r, w, asg, 1, 2)
	// The delayed straggler for epoch 1 arrives after epoch 2 was
	// processed: the log answers, the observer is untouched.
	reportEpochs(t, r, w, asg, 1, 1)
	// Epoch 4 before epoch 3: empty directive, not delivered.
	dir, err := reportEpoch(r, w, asg, 1, 4)
	if err != nil || dir.Revoked || dir.Sys != nil {
		t.Fatalf("out-of-order epoch report: dir=%+v err=%v, want empty directive", dir, err)
	}
	if err := commit(r, w, asg, 1, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	<-done
	if fmt.Sprint(observed) != "[1 2]" {
		t.Fatalf("observer saw %v, want [1 2]", observed)
	}
}
