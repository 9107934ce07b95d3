package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"pipetune"
	"pipetune/api"
	"pipetune/internal/admission"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
)

// jobScheduleSeeds is how many seeded schedules TestJobSchedules runs.
const jobScheduleSeeds = 1000

// TestJobSchedules drives the real Service through seeded schedules of
// everything tenants and job bodies can do to it — submissions (queue-full
// ones included), trial events, ok / error / cancelled finishes, cancels
// of queued and running jobs, fast, slow and cancelled subscribers,
// prunes, and a shutdown that the running jobs finish through. The start
// seam holds every dispatched job, and the schedule finishes it through
// the terminal step a real body takes, so the whole schedule runs on this
// goroutine; only Shutdown, which waits for the running jobs, runs beside
// it. After every step the service is checked against a model that
// replays each push, pop and removal on its own admission queue. A
// violation names its seed, and `go test -run TestJobSchedules
// ./internal/service/` replays it.
func TestJobSchedules(t *testing.T) {
	sys := newSystem(t)
	for seed := uint64(1); seed <= jobScheduleSeeds; seed++ {
		if _, err := runJobSchedule(sys, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestJobScheduleReplays: a seed played twice leaves identical registries
// — every retained job's state and event log, after shutdown. Shutdown
// cancels the queued jobs in admission order, and the retention cap makes
// that order visible in which of them survive.
func TestJobScheduleReplays(t *testing.T) {
	sys := newSystem(t)
	for seed := uint64(1); seed <= 200; seed++ {
		first, err := runJobSchedule(sys, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := runJobSchedule(sys, seed)
		if err != nil {
			t.Fatalf("seed %d replayed: %v", seed, err)
		}
		if first != again {
			t.Fatalf("seed %d: two runs left different registries:\n%s\nthen\n%s", seed, first, again)
		}
	}
}

var (
	scheduleWorkloads = []string{"lenet/mnist", "cnn/mnist", "lstm/news20"}
	scheduleTenants   = []string{"", "gold", "free"}
	schedulePolicies  = []string{pipetune.JobPolicyFIFO, pipetune.JobPolicyFair}
)

// simJob is the model of one accepted job.
type simJob struct {
	id     string
	jb     *job // the registry's record, kept past its pruning
	tenant string
	state  api.JobState // what the service must report
	errMsg string
	trials int
	ctx    context.Context // the body's context, once dispatched
}

// simStart is one call of the start seam.
type simStart struct {
	ctx      context.Context
	jb       *job
	finished bool
}

// simSub is one subscription and everything it has delivered.
type simSub struct {
	su        *Subscription
	job       *simJob
	slow      bool // reads nothing until the schedule ends
	got       []api.Event
	closed    bool
	cancelled bool
}

type jobSchedule struct {
	rng       *rand.Rand
	cfg       Config
	s         *Service
	ref       *admission.Queue // the model's copy of the service's queue
	doc       []byte           // a done job's document
	jobs      []*simJob
	byID      map[string]*simJob
	running   []*simJob   // the model's occupied slots
	starts    []*simStart // what the seam was handed, in order
	matched   int         // starts the model has accounted for
	subs      []*simSub
	closed    bool
	violation error
}

func (js *jobSchedule) fail(format string, args ...any) {
	if js.violation == nil {
		js.violation = fmt.Errorf(format, args...)
	}
}

// runJobSchedule plays one seed's schedule. It returns the registry the
// shutdown left — each retained job's state and event log — and the first
// violated invariant; a panic inside the service is a violation too.
func runJobSchedule(sys *pipetune.System, seed uint64) (registry string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rng := rand.New(rand.NewPCG(seed, 0x10b5))
	cfg := Config{
		System:           sys,
		Workers:          1 + rng.IntN(3),
		QueueDepth:       1 + rng.IntN(4),
		MaxJobsRetained:  1 + rng.IntN(6),
		JobPolicy:        schedulePolicies[rng.IntN(len(schedulePolicies))],
		TenantWeights:    map[string]int{"gold": 1 + rng.IntN(3)},
		SubscriberBuffer: 1 + rng.IntN(3),
	}
	svc, err := New(cfg)
	if err != nil {
		return "", err
	}
	ref, err := admission.New(admission.Config{
		Policy:   admission.Policy(cfg.JobPolicy),
		Weights:  cfg.TenantWeights,
		Capacity: cfg.QueueDepth,
	})
	if err != nil {
		return "", err
	}
	doc, err := svc.render(&tune.JobResult{})
	if err != nil {
		return "", err
	}
	js := &jobSchedule{rng: rng, cfg: cfg, s: svc, ref: ref, doc: doc, byID: map[string]*simJob{}}
	// The seam in production counts the body into wg and starts it; here
	// the body is whatever the schedule does to the job until finish.
	svc.start = func(ctx context.Context, jb *job) {
		svc.wg.Add(1)
		js.starts = append(js.starts, &simStart{ctx: ctx, jb: jb})
	}
	for steps := 20 + rng.IntN(61); steps > 0 && js.violation == nil; steps-- {
		js.step()
		js.check()
	}
	if js.violation != nil {
		return "", js.violation
	}
	js.shutdown()
	return js.registry(), js.violation
}

func (js *jobSchedule) step() {
	switch k := js.rng.IntN(100); {
	case k < 30:
		js.submit()
	case k < 42:
		js.trial()
	case k < 62:
		js.finish()
	case k < 72:
		js.cancel()
	case k < 84:
		js.subscribe()
	case k < 90:
		js.unsubscribe()
	default:
		js.s.mu.Lock()
		js.s.pruneLocked()
		js.s.mu.Unlock()
	}
}

func (js *jobSchedule) submit() {
	req := api.JobRequest{
		Workload: scheduleWorkloads[js.rng.IntN(len(scheduleWorkloads))],
		Tenant:   scheduleTenants[js.rng.IntN(len(scheduleTenants))],
		Seed:     7,
		Epochs:   1 + js.rng.IntN(6),
	}
	if js.rng.IntN(4) == 0 {
		req.Priority = 1
	}
	st, err := js.s.Submit(req)
	switch {
	case js.closed:
		if !errors.Is(err, ErrShutdown) {
			js.fail("submit after shutdown: %v, want ErrShutdown", err)
		}
		return
	case js.ref.Full():
		if !errors.Is(err, ErrQueueFull) {
			js.fail("submit into a full queue: %+v, %v; want ErrQueueFull", st, err)
		}
		return
	case err != nil:
		js.fail("submit: %v", err)
		return
	}
	if want := fmt.Sprintf("job-%06d", len(js.jobs)+1); st.ID != want {
		js.fail("accepted job is %s, want %s", st.ID, want)
		return
	}
	if err := js.ref.Push(admission.Job{ID: st.ID, Tenant: st.Tenant, Priority: req.Priority, Cost: st.PredictedDuration}); err != nil {
		js.fail("model push: %v", err)
		return
	}
	if st.State != api.StateQueued || st.QueuePosition == nil || *st.QueuePosition != js.ref.Position(st.ID) {
		js.fail("%s admitted as %v at %v, want queued at %d", st.ID, st.State, st.QueuePosition, js.ref.Position(st.ID))
	}
	js.s.mu.Lock()
	jb := js.s.jobs[st.ID]
	js.s.mu.Unlock()
	sj := &simJob{id: st.ID, jb: jb, tenant: st.Tenant, state: api.StateQueued}
	js.jobs = append(js.jobs, sj)
	js.byID[sj.id] = sj
	js.dispatch()
}

// dispatch is the model's dispatch: while a slot is free and the service
// open, the next job in admission order starts — and the seam must have
// been handed exactly that job, in that order.
func (js *jobSchedule) dispatch() {
	for !js.closed && len(js.running) < js.cfg.Workers {
		next, ok := js.ref.Pop()
		if !ok {
			break
		}
		sj := js.byID[next.ID]
		if js.matched == len(js.starts) {
			js.fail("%s should have dispatched, but the seam was not called", sj.id)
			return
		}
		start := js.starts[js.matched]
		js.matched++
		if start.jb != sj.jb {
			js.fail("dispatched %s, want %s (policy %s)", start.jb.id, sj.id, js.cfg.JobPolicy)
			return
		}
		sj.state, sj.ctx = api.StateRunning, start.ctx
		js.running = append(js.running, sj)
	}
	if js.matched != len(js.starts) {
		js.fail("dispatched %s, but no slot was free or the service was closed (%d running of %d)",
			js.starts[js.matched].jb.id, len(js.running), js.cfg.Workers)
	}
}

// trial is a running body's OnTrialDone.
func (js *jobSchedule) trial() {
	if len(js.running) == 0 {
		return
	}
	sj := js.running[js.rng.IntN(len(js.running))]
	sj.trials++
	js.s.publishTrial(sj.jb, sj.trials, &trainer.Result{Accuracy: js.rng.Float64(), Duration: float64(sj.trials)})
}

// finish ends a running body: done, failed, or — once its context is
// cancelled — cancelled, through the same terminal step as production.
func (js *jobSchedule) finish() {
	if len(js.running) == 0 {
		return
	}
	i := js.rng.IntN(len(js.running))
	sj := js.running[i]
	js.running = slices.Delete(js.running, i, i+1)
	var (
		doc []byte
		err error
	)
	switch js.rng.IntN(3) {
	case 0:
		doc, sj.state = js.doc, api.StateDone
	case 1:
		err = fmt.Errorf("boom %s", sj.id)
		sj.state, sj.errMsg = api.StateFailed, err.Error()
	default:
		if err = sj.ctx.Err(); err == nil {
			doc, sj.state = js.doc, api.StateDone // a body only ends cancelled once told to
		} else {
			sj.state = api.StateCancelled
		}
	}
	js.end(sj.jb, doc, err)
	js.dispatch()
}

// end takes a held body's terminal step, as the production seam's
// goroutine does.
func (js *jobSchedule) end(jb *job, doc []byte, err error) {
	for _, st := range js.starts {
		if st.jb == jb {
			if st.finished {
				js.fail("%s finished twice", jb.id)
				return
			}
			st.finished = true
		}
	}
	js.s.finish(jb, doc, err)
	js.s.wg.Done()
}

func (js *jobSchedule) cancel() {
	if len(js.jobs) == 0 {
		return
	}
	sj := js.jobs[js.rng.IntN(len(js.jobs))]
	st, err := js.s.Cancel(sj.id)
	switch {
	case sj.state == api.StateQueued:
		if err != nil || st.State != api.StateCancelled {
			js.fail("cancel of queued %s: %v %v, want cancelled", sj.id, st.State, err)
		}
		js.ref.Remove(sj.id)
		sj.state = api.StateCancelled
	case sj.state == api.StateRunning:
		if err != nil || st.State != api.StateRunning || sj.ctx.Err() == nil {
			js.fail("cancel of running %s: %v %v, context %v; want running with its context cancelled", sj.id, st.State, err, sj.ctx.Err())
		}
	case errors.Is(err, ErrTerminal):
		if st.State != sj.state || (sj.state == api.StateDone) != (st.Result != nil) {
			js.fail("cancel of %v %s answered %v with result %v", sj.state, sj.id, st.State, st.Result != nil)
		}
	case !errors.Is(err, ErrNotFound):
		js.fail("cancel of %v %s: %v, want ErrTerminal or ErrNotFound", sj.state, sj.id, err)
	}
}

func (js *jobSchedule) subscribe() {
	if len(js.jobs) == 0 {
		return
	}
	sj := js.jobs[js.rng.IntN(len(js.jobs))]
	su, err := js.s.Subscribe(sj.id)
	if err != nil {
		if !errors.Is(err, ErrNotFound) || !sj.state.Terminal() {
			js.fail("subscribe to %v %s: %v", sj.state, sj.id, err)
		}
		return
	}
	js.subs = append(js.subs, &simSub{su: su, job: sj, slow: js.rng.IntN(3) == 0, got: su.Replay})
}

func (js *jobSchedule) unsubscribe() {
	var live []*simSub
	for _, sub := range js.subs {
		if !sub.cancelled {
			live = append(live, sub)
		}
	}
	if len(live) == 0 {
		return
	}
	sub := live[js.rng.IntN(len(live))]
	sub.cancelled = true
	sub.su.Cancel()
}

// shutdown runs Shutdown beside the schedule: once it has closed the
// service and cancelled the running jobs' contexts, the schedule finishes
// every held body (Shutdown waits for them), then Shutdown cancels what is
// still queued.
func (js *jobSchedule) shutdown() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		js.s.Shutdown()
	}()
	<-js.s.baseCtx.Done() // Shutdown closes the service before it cancels the jobs
	// A parent context closes its Done channel before it cancels its
	// children, so wait until every running body has seen the
	// cancellation: whether a body ends cancelled must not depend on
	// which goroutine got there first.
	for _, sj := range js.running {
		<-sj.ctx.Done()
	}
	js.closed = true
	for js.violation == nil && len(js.running) > 0 {
		switch js.rng.IntN(4) {
		case 0:
			js.submit()
		case 1:
			js.trial()
		default:
			js.finish()
		}
		if len(js.running) > 0 { // the last finish lets Shutdown drain the queue
			js.check()
		}
	}
	// Whatever a broken service dispatched past the model must still end,
	// or Shutdown would wait for it forever.
	for i := 0; i < len(js.starts); i++ {
		if st := js.starts[i]; !st.finished {
			js.end(st.jb, nil, context.Canceled)
		}
	}
	<-done
	for {
		next, ok := js.ref.Pop()
		if !ok {
			break
		}
		js.byID[next.ID].state = api.StateCancelled
	}
	js.check()
	for _, sub := range js.subs {
		sub.read()
		if !sub.closed {
			js.fail("a subscription to %s is still open after shutdown", sub.job.id)
		}
	}
	js.checkSubs()
	for _, sj := range js.jobs {
		if !sj.state.Terminal() {
			js.fail("%s is %v after shutdown", sj.id, sj.state)
		}
	}
}

// read drains what the subscription has buffered, without blocking.
func (sub *simSub) read() {
	for !sub.closed {
		select {
		case ev, ok := <-sub.su.Events:
			if !ok {
				sub.closed = true
				return
			}
			sub.got = append(sub.got, ev)
		default:
			return
		}
	}
}

// check holds the service to the model and to its own invariants.
func (js *jobSchedule) check() {
	if js.violation != nil {
		return
	}
	s := js.s
	s.mu.Lock()
	running := 0
	for _, jb := range s.jobs {
		if jb.state == api.StateRunning {
			running++
		}
	}
	if running > js.cfg.Workers {
		js.fail("%d jobs running, Workers is %d", running, js.cfg.Workers)
	}
	if n := s.disp.q.Len(); n != js.ref.Len() {
		js.fail("the admission queue holds %d jobs, the model %d", n, js.ref.Len())
	}
	for _, sj := range js.jobs {
		jb := sj.jb
		if s.jobs[sj.id] == nil && !sj.state.Terminal() {
			js.fail("%v %s was pruned", sj.state, sj.id)
		}
		if jb.state != sj.state || jb.errMsg != sj.errMsg {
			js.fail("%s is %v %q, want %v %q", sj.id, jb.state, jb.errMsg, sj.state, sj.errMsg)
		}
		if (jb.state == api.StateRunning) != (jb.cancel != nil) {
			js.fail("%v %s has cancel set %v", jb.state, sj.id, jb.cancel != nil)
		}
		js.checkLog(sj, jb.events)
	}
	s.mu.Unlock()

	for _, st := range s.Jobs() {
		sj := js.byID[st.ID]
		if st.TrialsDone != sj.trials {
			js.fail("%s reports %d trials, want %d", st.ID, st.TrialsDone, sj.trials)
		}
		want := -1
		if sj.state == api.StateQueued {
			want = js.ref.Position(st.ID)
		}
		if got := st.QueuePosition; (got == nil) != (want < 0) || got != nil && *got != want {
			js.fail("%v %s at queue position %v, want %d (policy %s)", st.State, st.ID, got, want, js.cfg.JobPolicy)
		}
	}
	js.checkHealth()
	for _, sub := range js.subs {
		if !sub.slow {
			sub.read()
		}
	}
	js.checkSubs()
}

// checkLog: trial events, then — once the job is terminal — exactly one
// terminal state event, numbered from 1.
func (js *jobSchedule) checkLog(sj *simJob, events []api.Event) {
	want := sj.trials
	if sj.state.Terminal() {
		want++
	}
	if len(events) != want {
		js.fail("%v %s logged %d events, want %d trials and %v terminal", sj.state, sj.id, len(events), sj.trials, sj.state.Terminal())
		return
	}
	for i, ev := range events {
		terminal := i == sj.trials
		switch {
		case ev.Seq != i+1 || ev.JobID != sj.id:
			js.fail("%s event %d is %+v", sj.id, i, ev)
		case !terminal && (ev.Type != api.EventTrial || ev.Trial == nil || ev.Trial.TrialID != i+1):
			js.fail("%s event %d is %+v, want trial %d", sj.id, i, ev, i+1)
		case terminal && (ev.Type != api.EventState || ev.State != sj.state || ev.Error != sj.errMsg):
			js.fail("%s ends with %+v, want state %v %q", sj.id, ev, sj.state, sj.errMsg)
		}
	}
}

// checkHealth recounts the model: the headline counts and every tenant's
// row.
func (js *jobSchedule) checkHealth() {
	type row struct{ queued, running, finished int }
	rows := map[string]*row{}
	var all row
	for _, sj := range js.jobs {
		r := rows[sj.tenant]
		if r == nil {
			r = &row{}
			rows[sj.tenant] = r
		}
		switch {
		case sj.state == api.StateQueued:
			r.queued++
			all.queued++
		case sj.state == api.StateRunning:
			r.running++
			all.running++
		default:
			r.finished++
		}
	}
	h := js.s.Health()
	if h.Queued != all.queued || h.Running != all.running || h.Workers != js.cfg.Workers || h.JobPolicy != js.cfg.JobPolicy {
		js.fail("health %d queued, %d running, %d workers, policy %s; want %d, %d, %d, %s",
			h.Queued, h.Running, h.Workers, h.JobPolicy, all.queued, all.running, js.cfg.Workers, js.cfg.JobPolicy)
	}
	if len(h.Tenants) != len(rows) {
		js.fail("health has %d tenant rows, want %d", len(h.Tenants), len(rows))
	}
	for _, th := range h.Tenants {
		r := rows[th.Tenant]
		if r == nil || th.Queued != r.queued || th.Running != r.running || th.Finished != r.finished || th.Weight != js.ref.Weight(th.Tenant) {
			js.fail("health row %+v, want %+v weight %d", th, r, js.ref.Weight(th.Tenant))
		}
	}
}

// checkSubs: a subscription delivers the job's log in order, and one
// that ended without being cancelled saw the terminal event or is marked
// lagged.
func (js *jobSchedule) checkSubs() {
	for _, sub := range js.subs {
		sj := sub.job
		js.s.mu.Lock()
		events := sj.jb.events
		js.s.mu.Unlock()
		if len(sub.got) > len(events) {
			js.fail("a subscription to %s delivered %d events, the log holds %d", sj.id, len(sub.got), len(events))
			continue
		}
		for i, ev := range sub.got {
			if ev != events[i] {
				js.fail("a subscription to %s delivered %+v as event %d, the log holds %+v", sj.id, ev, i+1, events[i])
			}
		}
		if !sub.closed || sub.cancelled {
			continue
		}
		if n := len(sub.got); (n == 0 || !sub.got[n-1].State.Terminal()) && !sub.su.Lagged() {
			js.fail("a subscription to %v %s ended after %d events, without the terminal event or lagged", sj.state, sj.id, n)
		}
	}
}

// registry renders what the shutdown left: each retained job's state and
// event log.
func (js *jobSchedule) registry() string {
	var b strings.Builder
	js.s.mu.Lock()
	defer js.s.mu.Unlock()
	for _, id := range js.s.order {
		jb := js.s.jobs[id]
		fmt.Fprintf(&b, "%s %s %q:", id, jb.state, jb.errMsg)
		for _, ev := range jb.events {
			fmt.Fprintf(&b, " %d/%s/%s", ev.Seq, ev.Type, ev.State)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
