package exec

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// scheduleSeeds is how many seeded schedules TestLeaseSchedules runs.
const scheduleSeeds = 10_000

// TestLeaseSchedules drives the real lease manager through seeded
// interleavings of everything the fleet and its jobs can do to it —
// registrations, claims, in-order, duplicate and stale epoch reports,
// ok / error / abandoned commits from current and stale attempts,
// evictions, batch cancellations, and a drain before or after each
// enqueue — all from this one goroutine, through the same locked methods
// the stream and Run call. After every step it checks the invariants the
// fleet's failure paths promise — among them that a trial's observer sees
// each epoch once across all its attempts, and that every epoch it saw is
// answered with what it said then; a violation names its seed, and
// `go test -run TestLeaseSchedules ./internal/exec/` replays it.
func TestLeaseSchedules(t *testing.T) {
	for seed := uint64(1); seed <= scheduleSeeds; seed++ {
		if err := runSchedule(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

var errSimCancelled = errors.New("sim: job cancelled")

// simTicket is what a simulated worker believes it holds: a lease at an
// attempt, and the last epoch it reported. Tickets outlive their lease's
// requeue, commit and collection, so later steps replay them as stale
// and duplicate traffic.
type simTicket struct {
	worker  string
	lease   string
	attempt int
	epoch   int
}

// simTrial is the test's model of one trial.
type simTrial struct {
	l     *lease
	batch *simBatch
	// requeues counts the times the model expects the trial to have gone
	// back to the queue; its lease's attempt is one more. poisoned marks
	// a trial that lost its worker on its last attempt.
	requeues int
	poisoned bool
	// said holds what the observer answered, said[e-1] for epoch e, over
	// every attempt.
	said []*params.SysConfig
	// commits counts accepted ok and error commits; wantRes or wantErr
	// is what the accepted one carried.
	commits int
	wantRes *trainer.Result
	wantErr string
}

type simBatch struct {
	leases    []*lease
	trials    []*simTrial
	cancelled bool
	collected bool
}

type schedule struct {
	rng       *rand.Rand
	r         *Remote
	trials    []*simTrial
	byID      map[string]*simTrial
	batches   []*simBatch
	workers   []string // every id ever registered, evicted ones included
	tickets   []*simTicket
	reporting *simTicket // the ticket whose report is being delivered
	drained   bool
	results   int
	violation error
}

func (s *schedule) fail(format string, args ...any) {
	if s.violation == nil {
		s.violation = fmt.Errorf(format, args...)
	}
}

// runSchedule plays one seed's schedule and returns the first violated
// invariant; a panic inside the lease manager is a violation too.
func runSchedule(seed uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	s := &schedule{
		rng:  rand.New(rand.NewPCG(seed, 0x5eed)),
		r:    NewRemote(RemoteConfig{}),
		byID: map[string]*simTrial{},
	}
	for steps := 20 + s.rng.IntN(60); steps > 0 && s.violation == nil; steps-- {
		s.step()
		s.check()
	}
	// Shut down: drain, let in-flight work commit or die, then the
	// deadline fails whatever is left.
	if !s.drained {
		s.drain()
	}
	for steps := s.rng.IntN(10); steps > 0 && s.violation == nil; steps-- {
		switch s.rng.IntN(3) {
		case 0:
			s.commit()
		case 1:
			s.evict()
		default:
			s.report()
		}
		s.check()
	}
	s.r.mu.Lock()
	s.r.failOutstandingLocked()
	s.r.mu.Unlock()
	s.collect()
	s.check()
	r := s.r
	if len(r.pending) != 0 || len(r.leases) != 0 {
		s.fail("after the drain: %d pending, %d leases not collected", len(r.pending), len(r.leases))
	}
	for _, w := range r.workers {
		if len(w.inflight) != 0 {
			s.fail("after the drain: worker %s still holds %d leases", w.id, len(w.inflight))
		}
	}
	for _, b := range s.batches {
		if !b.collected {
			s.fail("after the drain: a batch never turned terminal")
		}
	}
	return s.violation
}

func (s *schedule) step() {
	switch k := s.rng.IntN(100); {
	case k < 8:
		s.register()
	case k < 16:
		s.enqueue()
	case k < 36:
		s.claim()
	case k < 56:
		s.report()
	case k < 76:
		s.commit()
	case k < 84:
		s.evict()
	case k < 89:
		s.cancel()
	case k < 91:
		s.drain()
	default:
		s.collect()
	}
}

func (s *schedule) register() {
	id, err := s.r.register(fmt.Sprintf("w%d", len(s.workers)), 1+s.rng.IntN(3))
	if err != nil {
		s.fail("register: %v", err)
		return
	}
	s.workers = append(s.workers, id)
}

func (s *schedule) enqueue() {
	b := &simBatch{}
	trials := make([]Trial, 1+s.rng.IntN(4))
	b.trials = make([]*simTrial, len(trials))
	for i := range trials {
		st := &simTrial{batch: b}
		b.trials[i] = st
		trials[i] = Trial{
			ID:       len(s.trials) + i,
			Workload: workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
			Hyper:    params.Hyper{Epochs: 3}, // reports may run past it: the log grows
			Observer: trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, e trainer.EpochStats) *params.SysConfig {
				return s.observe(st, e.Epoch)
			}),
		}
	}
	s.r.mu.Lock()
	b.leases = s.r.enqueueLocked(trials)
	s.r.mu.Unlock()
	for i, l := range b.leases {
		b.trials[i].l = l
		if s.drained {
			if l.state != leaseFailed || !errors.Is(l.err, ErrDraining) {
				s.fail("trial enqueued after the drain: state %d err %v, want failed with ErrDraining", l.state, l.err)
			}
			continue // refused: it has no lease id
		}
		s.byID[l.id] = b.trials[i]
	}
	s.trials = append(s.trials, b.trials...)
	s.batches = append(s.batches, b)
}

// observe is every trial's observer: only the lease's current attempt,
// on its current worker, may feed it, each epoch of the trial once and in
// order, whichever attempt reports it. It answers with a configuration
// no other epoch of any trial gets.
func (s *schedule) observe(st *simTrial, epoch int) *params.SysConfig {
	tk := s.reporting
	switch {
	case tk == nil || tk.lease != st.l.id:
		s.fail("observer of %s fed outside a report of it", st.l.id)
	case tk.attempt != st.l.attempt || tk.worker != st.l.worker:
		s.fail("observer of %s fed by %s attempt %d; the lease is on %s at attempt %d",
			st.l.id, tk.worker, tk.attempt, st.l.worker, st.l.attempt)
	case epoch != len(st.said)+1:
		s.fail("observer of %s saw epoch %d after epoch %d (attempt %d)", st.l.id, epoch, len(st.said), st.l.attempt)
	}
	sys := &params.SysConfig{Cores: epoch, MemoryGB: st.l.trial.ID}
	st.said = append(st.said, sys)
	return sys
}

// claim is a granter's claim: an active worker of a plane that is not
// draining takes up to one or up to all of its capacity.
func (s *schedule) claim() {
	if len(s.workers) == 0 {
		return
	}
	id := s.workers[s.rng.IntN(len(s.workers))]
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[id]
	if w == nil || w.state != workerActive || r.draining {
		return
	}
	limit := 1
	if s.rng.IntN(2) == 0 {
		limit = w.capacity
	}
	for _, l := range r.claimLocked(w, limit) {
		st := s.byID[l.id]
		if l.attempt != st.requeues+1 || l.attempt > maxLeaseAttempts {
			s.fail("%s granted at attempt %d after %d requeues (cap %d)", l.id, l.attempt, st.requeues, maxLeaseAttempts)
		}
		s.tickets = append(s.tickets, &simTicket{worker: id, lease: l.id, attempt: l.attempt})
	}
}

func (s *schedule) ticket() *simTicket {
	if len(s.tickets) == 0 {
		return nil
	}
	return s.tickets[s.rng.IntN(len(s.tickets))]
}

// report sends the next epoch, a duplicate of the last one, or a stale
// earlier one. An answer that is not a revocation carries what the
// observer said for that epoch, or nothing for an epoch it never saw.
func (s *schedule) report() {
	tk := s.ticket()
	if tk == nil {
		return
	}
	epoch := tk.epoch + 1
	switch s.rng.IntN(5) {
	case 0:
		epoch = tk.epoch
	case 1:
		epoch = tk.epoch - 1
	}
	epoch = max(epoch, 1) // trainers number epochs from 1
	s.reporting = tk
	dir, err := s.r.reportEpoch(tk.worker, []byte(tk.lease), tk.attempt, trainer.EpochStats{Epoch: epoch})
	s.reporting = nil
	tk.epoch = max(tk.epoch, epoch)
	if err != nil || dir.Revoked {
		return
	}
	st := s.byID[tk.lease]
	var want *params.SysConfig
	if epoch <= len(st.said) {
		want = st.said[epoch-1]
	}
	if dir.Sys != want {
		s.fail("%s attempt %d, epoch %d answered %v; the observer said %v", tk.lease, tk.attempt, epoch, dir.Sys, want)
	}
}

// commit sends an ok, error or abandoned commit for a ticket, current or
// stale; most tickets are then dropped, the rest stay to be retried.
func (s *schedule) commit() {
	tk := s.ticket()
	if tk == nil {
		return
	}
	s.results++
	var (
		res       *trainer.Result
		errMsg    string
		abandoned bool
	)
	switch s.rng.IntN(10) {
	case 0, 1:
		errMsg = fmt.Sprintf("boom %d", s.results)
	case 2, 3, 4:
		abandoned = true
	default:
		res = &trainer.Result{Duration: float64(s.results)}
	}
	err := s.r.complete(tk.worker, []byte(tk.lease), tk.attempt, res, errMsg, abandoned)
	if err == nil && abandoned {
		s.lostWorker([]*simTrial{s.byID[tk.lease]})
	}
	if err == nil && !abandoned {
		st := s.byID[tk.lease]
		if st.commits++; st.commits > 1 {
			s.fail("%s accepted a second commit (attempt %d from %s)", tk.lease, tk.attempt, tk.worker)
		}
		st.wantRes, st.wantErr = res, errMsg
	}
	if s.rng.IntN(10) < 7 {
		for i, o := range s.tickets {
			if o == tk {
				s.tickets = append(s.tickets[:i], s.tickets[i+1:]...)
				break
			}
		}
	}
}

func (s *schedule) evict() {
	if len(s.workers) == 0 {
		return
	}
	id := s.workers[s.rng.IntN(len(s.workers))]
	var held []*simTrial
	s.r.mu.Lock()
	for _, st := range s.trials {
		if st.l.state == leaseLeased && st.l.worker == id {
			held = append(held, st)
		}
	}
	s.r.mu.Unlock()
	s.r.evictWorker(id, "sim")
	s.lostWorker(held)
}

// lostWorker is the model's rule for leased trials that just lost their
// worker: each goes back to the queue at the next attempt unless its job
// gave up, the plane drains, or it has used its last attempt — then it
// fails.
func (s *schedule) lostWorker(held []*simTrial) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, st := range held {
		requeue := !st.batch.cancelled && !s.drained && st.requeues+1 < maxLeaseAttempts
		if requeue {
			st.requeues++
		}
		st.poisoned = !st.batch.cancelled && !s.drained && !requeue
		if got := st.l.state == leasePending; got != requeue || !got && st.l.state != leaseFailed {
			s.fail("%s lost its worker at attempt %d and is in state %d; requeue expected: %v",
				st.l.id, st.requeues+1, st.l.state, requeue)
		}
	}
}

// cancel is a Run whose context died: the batch is abandoned.
func (s *schedule) cancel() {
	var live []*simBatch
	for _, b := range s.batches {
		if !b.collected && !b.cancelled {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return
	}
	b := live[s.rng.IntN(len(live))]
	b.cancelled = true
	s.r.mu.Lock()
	s.r.abandonLocked(b.leases, errSimCancelled)
	s.r.mu.Unlock()
}

// drain is Drain's first half; the deadline (failOutstandingLocked) is
// runSchedule's last step.
func (s *schedule) drain() {
	if s.drained {
		return
	}
	s.drained = true
	s.r.mu.Lock()
	s.r.drainLocked()
	s.r.mu.Unlock()
}

// collect is Run's return for every batch that has turned terminal:
// each trial carries a result xor an error, and the result is the one
// its single accepted commit carried.
func (s *schedule) collect() {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range s.batches {
		if b.collected {
			continue
		}
		ready := true
		for _, l := range b.leases {
			select {
			case <-l.done:
			default:
				ready = false
			}
		}
		if !ready {
			continue
		}
		b.collected = true
		results, errs := r.collectLocked(b.leases)
		for i, st := range b.trials {
			res, err := results[i], errs[i]
			switch {
			case (res == nil) == (err == nil):
				s.fail("%s ended with result %v and error %v", st.l.id, res, err)
			case st.commits == 0 && res != nil:
				s.fail("%s has a result no commit was accepted for", st.l.id)
			case st.commits == 1 && st.wantRes != nil && res != st.wantRes:
				s.fail("%s ended with %v / %v, not the accepted commit's result", st.l.id, res, err)
			case st.commits == 1 && st.wantErr != "" && (err == nil || !strings.HasSuffix(err.Error(), ": "+st.wantErr)):
				s.fail("%s ended with %v, not the accepted commit's error %q", st.l.id, err, st.wantErr)
			case st.poisoned && (err == nil || !strings.Contains(err.Error(), "poison trial")):
				s.fail("%s lost its worker on its last attempt and ended with %v", st.l.id, err)
			case st.commits == 0 && b.cancelled && !st.poisoned && !errors.Is(err, errSimCancelled) && !errors.Is(err, ErrDraining):
				s.fail("%s of a cancelled batch failed with %v", st.l.id, err)
			}
		}
	}
}

// check holds the lease manager's state to its invariants.
func (s *schedule) check() {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	queued := map[*lease]bool{}
	for _, l := range r.pending {
		if queued[l] || l.state != leasePending {
			s.fail("%s queued twice or in state %d", l.id, l.state)
		}
		queued[l] = true
	}
	if r.draining && len(r.pending) != 0 {
		s.fail("%d leases pending while draining", len(r.pending))
	}
	for _, w := range r.workers {
		if len(w.inflight) > w.capacity {
			s.fail("worker %s holds %d leases, capacity %d", w.id, len(w.inflight), w.capacity)
		}
		for _, l := range w.inflight {
			if l.state != leaseLeased || l.worker != w.id {
				s.fail("%s in %s's inflight set in state %d on %q", l.id, w.id, l.state, l.worker)
			}
		}
	}
	for _, st := range s.trials {
		l := st.l
		select {
		case <-l.done:
			if !l.terminal() {
				s.fail("%s signalled done in state %d", l.id, l.state)
			}
		default:
			if l.terminal() {
				s.fail("%s is terminal but never signalled done", l.id)
			}
		}
		switch l.state {
		case leaseLeased:
			if w := r.workers[l.worker]; w == nil || w.inflight[l.id] != l || queued[l] {
				s.fail("leased %s is not in %s's inflight set, or is also queued", l.id, l.worker)
			}
		case leasePending:
			if !queued[l] {
				s.fail("pending %s is not queued", l.id)
			}
			if st.batch.cancelled {
				s.fail("%s of a cancelled batch was requeued", l.id)
			}
		}
		if l.attempt != st.requeues+1 || l.attempt > maxLeaseAttempts {
			s.fail("%s at attempt %d after %d requeues (cap %d)", l.id, l.attempt, st.requeues, maxLeaseAttempts)
		}
	}
}
