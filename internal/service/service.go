// Package service is the multi-tenant tuning service behind the pipetuned
// daemon: a job registry with explicit lifecycle states, bounded
// concurrent execution of jobs over one shared pipetune.System, per-job
// progress streams, and a single ground-truth database shared across all
// jobs and persisted atomically to disk.
//
// This is the paper's deployment model (§5, §7.1.2): PipeTune is cluster
// middleware that tenants submit tuning jobs to, and the ground-truth
// similarity database accumulates across jobs and tenants — a job
// submitted today skips probing because of a job another tenant ran
// yesterday.
//
// Lifecycle: Submit validates the request and enqueues the job (queued).
// Dispatch is a step, not a thread: while fewer than Config.Workers jobs
// run, the end of Submit and the end of every finishing job pop the next
// queued job and start it (running); the run ends in done, failed or
// cancelled. Cancel aborts a queued job immediately and interrupts a
// running one at its next trial boundary via context cancellation.
//
// Dispatch order is policy-driven (internal/admission): the default
// "fifo" policy reproduces the legacy single-queue submission-order
// schedule exactly; "fair" runs deficit round robin over per-tenant
// queues weighted by Config.TenantWeights. Job costs come from the cost
// model's trial-duration prediction.
package service

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"pipetune"
	"pipetune/api"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/metrics"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
)

// Errors surfaced to the HTTP layer.
var (
	ErrNotFound   = errors.New("service: job not found")
	ErrTerminal   = errors.New("service: job already finished")
	ErrQueueFull  = errors.New("service: job queue full")
	ErrShutdown   = errors.New("service: shutting down")
	ErrBadRequest = errors.New("service: invalid request")
)

// Config wires a Service.
type Config struct {
	// System executes the jobs; all jobs share its cluster, trainer and
	// ground-truth database. Required.
	System *pipetune.System
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueDepth bounds jobs waiting in queued state (default 64).
	QueueDepth int
	// GTPath, when non-empty, persists the shared ground-truth database:
	// restored at New (snapshot + write-ahead-log replay; legacy JSON
	// snapshots load unchanged) and logged append-only as jobs feed it:
	// every Add is fsynced to the WAL before it returns, so a job that
	// reports done has its contributions durable already. The log is
	// compacted into a fresh snapshot after every job that grew it, when
	// it passes compactEvery records, after an import and at Shutdown.
	GTPath string
	// MaxJobsRetained bounds the registry: when the job count exceeds it,
	// the oldest terminal jobs (status, result and event log) are evicted
	// so a long-running daemon's memory stays flat. Queued and running
	// jobs are never evicted. Default 1024.
	MaxJobsRetained int
	// JobPolicy selects the dispatch order across queued jobs: "fifo"
	// (default — the legacy submission-order schedule, exactly) or "fair"
	// (weighted deficit round robin across tenants).
	JobPolicy string
	// TenantWeights maps tenant name to fair-share weight (default 1).
	// Only the "fair" policy consults it.
	TenantWeights map[string]int
	// SubscriberBuffer is each event subscriber's channel depth; a
	// subscriber that falls further behind is dropped with a terminal
	// "lagged" event (default 256).
	SubscriberBuffer int
	// Remote, when non-nil, is the remote execution plane the daemon
	// fronts: the service wires it into the System's tuner, mounts the
	// worker stream upgrade next to the job API, reports fleet state in
	// /healthz, and drains leases on shutdown. Nil keeps the local
	// in-process execution backend.
	Remote *exec.Remote
	// DrainTimeout bounds the shutdown wait for in-flight remote trials;
	// leases still outstanding at the deadline fail their jobs rather
	// than vanish (default 10s). Ignored on the local backend.
	DrainTimeout time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// compactEvery folds the ground-truth write-ahead log into a snapshot
// once it holds this many records.
const compactEvery = 256

// subscriber is one live event stream over a job.
type subscriber struct {
	ch chan api.Event
	// lagged is set (under Service.mu, before ch closes) when the service
	// dropped this subscriber for falling behind — the stream consumer
	// must then emit api.EventLagged instead of ending silently.
	lagged bool
}

// job is the registry's unit: request, state machine, result, event log.
//
// A finished job is an immutable document: doc is a done job's result
// rendered once, at the terminal transition (deflated json.Marshal bytes,
// what the API nests in api.JobStatus), in place of a *tune.JobResult
// graph several times the size. It is a string interned in Service.docs,
// so done jobs with identical results hold one copy, released when the
// last of them is pruned. It is never written once set, so readers copy
// the string header under Service.mu and inflate outside it. A done job
// keeps nothing else the document holds: its replay log is derived from
// the document (replay), and spec and subs go at the terminal transition
// too.
type job struct {
	id        string
	req       api.JobRequest
	spec      tune.JobSpec
	mode      string
	tenant    string  // resolved accounting principal ("default" if unset)
	predicted float64 // cost model's per-trial duration estimate (dispatch cost)
	state     api.JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	doc       string // set once done; every other state has none
	trials    int
	cancel    context.CancelFunc       // non-nil while running
	events    []api.Event              // replay log for late subscribers; nil once done
	subs      map[*subscriber]struct{} // nil once terminal
}

// Service is the job registry and executor.
type Service struct {
	cfg      Config
	gt       gt.Store       // the store every job reads and feeds
	persist  *gt.Persistent // non-nil when GTPath is set; == gt then
	reg      *metrics.Registry
	met      *svcMetrics
	wg       sync.WaitGroup
	baseCtx  context.Context
	stop     context.CancelFunc
	shutdown sync.Once

	// The daemon's one deflater (≈ 1 MB of tables at any level, so
	// finishing jobs share it) is a working set, not state: held weakly,
	// and pinned from its first render until no job runs, so an idle
	// service hands it to the collector and the next render makes a new
	// one. renderMu is never held together with mu; mu clears the pin.
	renderMu  sync.Mutex
	renderBuf bytes.Buffer
	deflater  weak.Pointer[flate.Writer]
	pinned    atomic.Pointer[flate.Writer]

	mu     sync.Mutex
	disp   *dispatcher // tenant-aware job queue; all methods under mu
	jobs   map[string]*job
	order  []string // submission order, for stable listing
	nextID int
	closed bool
	// docs interns the documents of retained done jobs by content: one
	// string per distinct result, however many jobs hold it.
	docs map[string]*docRef
	// start runs a dispatched job's body, called under mu; it must not
	// block. New points it at a goroutine that runs the job and then takes
	// its terminal step.
	start func(ctx context.Context, jb *job)
}

// New builds the service and restores the ground-truth snapshot from
// Config.GTPath if one exists.
func New(cfg Config) (*Service, error) {
	if cfg.System == nil {
		return nil, errors.New("service: Config.System is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobsRetained <= 0 {
		cfg.MaxJobsRetained = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	// One registry for every layer: the execution plane's when there is
	// one, so fleet series and service series land on one /metrics page.
	var reg *metrics.Registry
	if cfg.Remote == nil {
		reg = metrics.NewRegistry()
	} else {
		reg = cfg.Remote.MetricsRegistry()
		// Every job's trial bodies now compute on the worker fleet; the
		// searcher, scheduler and ground-truth middleware stay in-process.
		cfg.System.SetExecBackend(cfg.Remote)
	}
	s := &Service{
		cfg:  cfg,
		gt:   cfg.System.GroundTruth(),
		reg:  reg,
		met:  newSvcMetrics(reg),
		jobs: make(map[string]*job),
		docs: make(map[string]*docRef),
	}
	disp, err := newDispatcher(cfg, s.met)
	if err != nil {
		return nil, err
	}
	s.disp = disp
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.GTPath != "" {
		ps, err := gt.OpenPersistent(cfg.GTPath, s.gt, gt.PersistOptions{
			CompactEvery: compactEvery,
			Logf:         cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		// Every job's Add must flow through the WAL, so the persistent
		// wrapper becomes the System's store, not just the service's.
		cfg.System.SetGroundTruthStore(ps)
		s.persist = ps
		s.gt = ps
		if n := ps.Info().Entries; n > 0 {
			cfg.Logf("service: restored ground truth from %s (%d entries)", cfg.GTPath, n)
		}
	}
	// The ground-truth store (and, through the persistent wrapper, its
	// WAL) publishes into the same registry.
	if in, ok := s.gt.(gt.Instrumentable); ok {
		in.InstrumentMetrics(reg)
	}
	// The trainer substrate publishes too: kernel wall times, corpus bytes
	// and, when the trial prefix cache is enabled, its hit/miss/residency
	// families.
	cfg.System.InstrumentTrainer(reg)
	s.start = func(ctx context.Context, jb *job) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			doc, err := s.runJob(ctx, jb)
			s.finish(jb, doc, err)
		}()
	}
	return s, nil
}

// buildSpec translates an API request into a library JobSpec, mirroring
// exactly what a library caller gets from System.JobSpec — the invariant
// behind the HTTP-versus-library determinism guarantee.
func (s *Service) buildSpec(req api.JobRequest) (tune.JobSpec, string, error) {
	w, err := api.ParseWorkload(req.Workload)
	if err != nil {
		return tune.JobSpec{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	mode := req.Mode
	if mode == "" {
		mode = api.ModePipeTune
	}
	spec := s.cfg.System.JobSpec(w)
	switch mode {
	case api.ModePipeTune, api.ModeTuneV1:
		// JobSpec defaults are V1; PipeTune layers the middleware on top.
	case api.ModeTuneV2:
		spec.Mode = tune.ModeV2
		spec.Objective = tune.MaximizeAccuracyPerTime
	default:
		return tune.JobSpec{}, "", fmt.Errorf("%w: unknown mode %q", ErrBadRequest, req.Mode)
	}
	switch req.Objective {
	case "":
	case api.ObjectiveAccuracy:
		spec.Objective = tune.MaximizeAccuracy
	case api.ObjectiveAccuracyPerTime:
		spec.Objective = tune.MaximizeAccuracyPerTime
	default:
		return tune.JobSpec{}, "", fmt.Errorf("%w: unknown objective %q", ErrBadRequest, req.Objective)
	}
	if req.Seed != 0 {
		spec.Seed = req.Seed
	}
	if req.Epochs < 0 || req.MaxParallel < 0 {
		return tune.JobSpec{}, "", fmt.Errorf("%w: negative epochs/maxParallel", ErrBadRequest)
	}
	if req.Epochs > 0 {
		spec.BaseHyper.Epochs = req.Epochs
	}
	if req.MaxParallel > 0 {
		spec.MaxParallel = req.MaxParallel
	}
	// The range tune would refuse at run time is refused here, before the
	// job takes an ID and a queue slot.
	if err := spec.BaseHyper.Validate(); err != nil {
		return tune.JobSpec{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return spec, mode, nil
}

// DefaultTenant is the accounting principal of requests that name none.
const DefaultTenant = "default"

// Submit validates and enqueues a job, returning its queued status.
func (s *Service) Submit(req api.JobRequest) (api.JobStatus, error) {
	spec, mode, err := s.buildSpec(req)
	if err != nil {
		return api.JobStatus{}, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	// The cost model prices the job for fair dispatch (and the status
	// surface). A workload it cannot price dispatches at unit cost.
	predicted, err := s.cfg.System.PredictTrialDuration(spec.Workload, spec.BaseHyper, spec.BaseSys)
	if err != nil {
		predicted = 0
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return api.JobStatus{}, ErrShutdown
	}
	// Admission is decided before the ID is allocated: a queue-full
	// rejection must not burn a job-%06d sequence number, or the accepted
	// sequence would grow gaps under load spikes.
	if s.disp.q.Full() {
		s.met.rejected.Inc()
		s.mu.Unlock()
		return api.JobStatus{}, ErrQueueFull
	}
	s.nextID++
	jb := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		req:       req,
		spec:      spec,
		mode:      mode,
		tenant:    tenant,
		predicted: predicted,
		state:     api.StateQueued,
		submitted: time.Now().UTC(),
		subs:      make(map[*subscriber]struct{}),
	}
	if err := s.disp.pushLocked(jb); err != nil {
		s.nextID-- // unreachable (capacity held under mu), but keep the sequence honest
		s.mu.Unlock()
		return api.JobStatus{}, err
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	st := s.statusLocked(jb) // the admitted status, whether or not it dispatches now
	s.dispatchLocked()
	s.mu.Unlock()
	s.cfg.Logf("service: %s queued (%s %s tenant=%s)", jb.id, mode, req.Workload, tenant)
	return st, nil
}

// dispatchLocked starts queued jobs in policy order while a slot is free
// and the service is open. The pop and the flip to running share one
// critical section, so no Cancel can land between them. It runs at the end
// of Submit and of every running job's terminal step. Callers hold s.mu.
func (s *Service) dispatchLocked() {
	for !s.closed {
		if _, running := s.disp.countsLocked(); running >= s.cfg.Workers {
			return
		}
		next, ok := s.disp.q.Pop()
		if !ok {
			return
		}
		jb := s.jobs[next.ID]
		ctx, cancel := context.WithCancel(s.baseCtx)
		jb.state = api.StateRunning
		jb.started = time.Now().UTC()
		jb.cancel = cancel
		s.disp.onDispatchLocked(jb.tenant, jb.started.Sub(jb.submitted))
		s.start(ctx, jb)
	}
}

// runJob is a dispatched job's one call outside s.mu: the tuning run
// through the shared System, then its result rendered to a document.
func (s *Service) runJob(ctx context.Context, jb *job) (string, error) {
	spec := jb.spec
	spec.OnTrialDone = func(trialID int, res *trainer.Result) {
		s.publishTrial(jb, trialID, res)
	}
	var (
		res *tune.JobResult
		err error
	)
	if jb.mode == api.ModePipeTune {
		res, err = s.cfg.System.RunPipeTuneCtx(ctx, spec)
	} else {
		res, err = s.cfg.System.RunBaselineCtx(ctx, spec)
	}
	// Fold the job's log records into the snapshot before it turns
	// terminal. Not for durability — every Add was fsynced to the WAL
	// before it returned, so "done" already implies durable — but so that
	// recovery never replays more than the running jobs' records.
	s.snapshotGT()
	if err != nil || res == nil {
		return "", err
	}
	return s.render(res)
}

// finish is a running job's terminal step: the run's outcome becomes the
// job's terminal state, and the freed slot dispatches the next job.
func (s *Service) finish(jb *job, doc string, err error) {
	s.mu.Lock()
	jb.cancel()
	jb.cancel = nil
	switch {
	case err == nil:
		jb.doc = s.internLocked(doc)
		s.finishLocked(jb, api.StateDone, "")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.finishLocked(jb, api.StateCancelled, "")
	default:
		s.finishLocked(jb, api.StateFailed, err.Error())
	}
	s.dispatchLocked()
	if _, running := s.disp.countsLocked(); running == 0 {
		// No job runs, so no render is in flight or can start before
		// the next dispatch: the deflater is garbage once it is unpinned.
		s.pinned.Store(nil)
	}
	state := jb.state
	s.mu.Unlock()

	s.cfg.Logf("service: %s %s", jb.id, state)
}

// resultLevel is the deflate level of a retained result, measured on the
// Table 3 catalog (≈ 36 KB of JSON per 22-trial job): level 6 keeps
// ≈ 4.6 KB for 0.40 ms per job, BestSpeed ≈ 5.7 KB for 0.16 ms, level 9
// ≈ 4.5 KB for 0.52 ms — paid once, then retained and read many times.
const resultLevel = flate.DefaultCompression // level 6

// render turns a finished job's result into its document, outside s.mu.
func (s *Service) render(res *tune.JobResult) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("service: render result: %w", err)
	}
	s.renderMu.Lock()
	defer s.renderMu.Unlock()
	zw := s.deflater.Value()
	if zw == nil {
		zw, _ = flate.NewWriter(nil, resultLevel) // a valid constant level cannot fail
		s.deflater = weak.Make(zw)
	}
	s.pinned.Store(zw)
	s.renderBuf.Reset()
	zw.Reset(&s.renderBuf)
	_, _ = zw.Write(raw) // renderBuf cannot fail a write
	_ = zw.Close()
	return s.renderBuf.String(), nil
}

// docRef is one interned document and the number of retained jobs that
// hold it. Service.docs maps to a pointer because assigning to an existing
// string key stores the assigned copy as the key, which would keep a
// duplicate alive.
type docRef struct {
	doc     string
	holders int
}

// internLocked returns the stored copy of doc, storing doc when no job
// holds an identical one, and counts one more holder. Callers hold s.mu.
func (s *Service) internLocked(doc string) string {
	ref, ok := s.docs[doc]
	if !ok {
		ref = &docRef{doc: doc}
		s.docs[doc] = ref
		s.met.resultDocs.Add(1)
		s.met.resultDocBytes.Add(float64(len(doc)))
	}
	ref.holders++
	return ref.doc
}

// releaseLocked drops one holder of doc, and doc itself with its last
// holder. Callers hold s.mu.
func (s *Service) releaseLocked(doc string) {
	ref := s.docs[doc]
	if ref.holders--; ref.holders > 0 {
		return
	}
	delete(s.docs, doc)
	s.met.resultDocs.Add(-1)
	s.met.resultDocBytes.Add(-float64(len(doc)))
}

// inflater is the pooled read side of a document: a flate reader and the
// buffer it fills, so a read allocates nothing the size of the result.
type inflater struct {
	src strings.Reader
	fr  io.ReadCloser
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// inflate returns the JSON of doc, valid until in goes back to the pool —
// in full or not at all: a corrupt document is never half a response.
func (in *inflater) inflate(doc string) ([]byte, error) {
	in.src.Reset(doc)
	in.out.Reset()
	_ = in.fr.(flate.Resetter).Reset(&in.src, nil) // flate's Reset never fails
	if _, err := in.out.ReadFrom(in.fr); err != nil {
		return nil, fmt.Errorf("service: stored result unreadable: %v", err)
	}
	return in.out.Bytes(), nil
}

// decode reads a done job's document into v: the pooled inflater yields
// the whole JSON or an error, and json.Unmarshal checks all of it before
// it fills v, so v is filled from a whole document or the call fails.
func decode(doc string, v any) error {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	raw, err := in.inflate(doc)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("service: stored result unreadable: %v", err)
	}
	return nil
}

// withResult attaches a done job's result, read from its document, as a
// graph of the caller's own: no two callers share memory, so none can
// corrupt what a later one reads. A job in any other state has none.
func withResult(st api.JobStatus, doc string) (api.JobStatus, error) {
	if st.State != api.StateDone {
		return st, nil
	}
	res := new(tune.JobResult)
	if err := decode(doc, res); err != nil {
		return st, err
	}
	st.Result = res
	return st, nil
}

// replayDoc is what a replay reads of a tune.JobResult document: the
// JSON names of its fields, the four numbers an event carries and an
// epoch count, for which every epoch object is skipped, not decoded.
type replayDoc struct {
	Trials []struct {
		ID     int `json:"id"`
		Result *struct {
			Accuracy float64    `json:"accuracy"`
			Duration float64    `json:"duration"`
			EnergyJ  float64    `json:"energyJ"`
			Epochs   []struct{} `json:"epochs"`
		} `json:"result"`
	} `json:"trials"`
}

// replay derives a done job's event log from its document — in full or
// not at all. It is the log publishTrial and finishLocked wrote: tune
// appends res.Trials in the order it calls OnTrialDone, and JSON round-
// trips every float64 exactly, so trial i's event carries Seq i+1 and the
// same bytes, and the done state event follows.
func replay(id, doc string) ([]api.Event, error) {
	var res replayDoc
	if err := decode(doc, &res); err != nil {
		return nil, err
	}
	n := len(res.Trials)
	trials := make([]api.TrialEvent, n)
	events := make([]api.Event, n+1)
	for i, t := range res.Trials {
		if t.Result == nil {
			return nil, fmt.Errorf("service: stored result unreadable: trial %d has no result", t.ID)
		}
		trials[i] = api.TrialEvent{
			TrialID:  t.ID,
			Accuracy: t.Result.Accuracy,
			Duration: t.Result.Duration,
			EnergyJ:  t.Result.EnergyJ,
			Epochs:   len(t.Result.Epochs),
		}
		events[i] = api.Event{Type: api.EventTrial, JobID: id, Seq: i + 1, Trial: &trials[i]}
	}
	events[n] = api.Event{Type: api.EventState, JobID: id, Seq: n + 1, State: api.StateDone}
	return events, nil
}

// snapshotGT compacts the write-ahead log into a snapshot if anything
// changed since the last one. The persistence layer serialises concurrent
// compactions and skips no-ops internally. Failures are logged, never
// fatal: a missed snapshot degrades recovery time, not correctness — the
// WAL already holds every entry durably.
func (s *Service) snapshotGT() {
	if s.persist == nil {
		return
	}
	if err := s.persist.Compact(); err != nil {
		s.cfg.Logf("service: ground-truth compaction failed: %v", err)
	}
}

// publishTrial appends a trial event to the job's log and fans it out.
func (s *Service) publishTrial(jb *job, trialID int, res *trainer.Result) {
	ev := api.Event{
		Type:  api.EventTrial,
		JobID: jb.id,
		Trial: &api.TrialEvent{
			TrialID:  trialID,
			Accuracy: res.Accuracy,
			Duration: res.Duration,
			EnergyJ:  res.EnergyJ,
			Epochs:   len(res.Epochs),
		},
	}
	s.mu.Lock()
	jb.trials++
	s.met.trials.Inc()
	s.appendEventLocked(jb, ev)
	s.mu.Unlock()
}

// finishLocked atomically moves a job to a terminal state: the state
// flip, the terminal event's delivery and the stream closures happen in
// one critical section, so a Subscribe can never observe a terminal job
// whose replay lacks the terminal event. A done job (its doc set by the
// caller) drops its log, which replay derives from the document; a failed
// or cancelled one has no document and keeps an exact-size copy, without
// the append slack (up to 2×) it would otherwise carry while retained.
// Nothing reads spec once the job is terminal. Callers hold s.mu.
func (s *Service) finishLocked(jb *job, state api.JobState, errMsg string) {
	s.disp.onFinishLocked(jb, state)
	jb.state = state
	jb.errMsg = errMsg
	jb.finished = time.Now().UTC()
	s.appendEventLocked(jb, api.Event{Type: api.EventState, JobID: jb.id, State: state, Error: errMsg})
	if state == api.StateDone {
		jb.events = nil
	} else {
		jb.events = append(make([]api.Event, 0, len(jb.events)), jb.events...)
	}
	for sub := range jb.subs {
		close(sub.ch)
		s.met.sseSubs.Add(-1)
	}
	jb.subs = nil
	jb.spec = tune.JobSpec{}
	s.pruneLocked()
}

// appendEventLocked sequences the event into the replay log and delivers
// it to live subscribers. A subscriber too slow to drain its buffer is
// dropped — marked lagged *before* its channel closes, so the stream
// layer emits a terminal api.EventLagged frame instead of ending the
// stream indistinguishably from a normal job completion. The subscriber
// re-subscribes and replays to learn the true outcome. Callers hold s.mu.
func (s *Service) appendEventLocked(jb *job, ev api.Event) {
	ev.Seq = len(jb.events) + 1
	jb.events = append(jb.events, ev)
	s.met.sseEvents.Inc()
	for sub := range jb.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.lagged = true
			close(sub.ch)
			delete(jb.subs, sub)
			s.met.sseLagged.Inc()
			s.met.sseSubs.Add(-1)
		}
	}
}

// pruneLocked evicts the oldest terminal jobs once the registry exceeds
// MaxJobsRetained, keeping a long-running daemon's memory flat. Callers
// hold s.mu.
func (s *Service) pruneLocked() {
	if len(s.jobs) <= s.cfg.MaxJobsRetained {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		jb := s.jobs[id]
		if len(s.jobs) > s.cfg.MaxJobsRetained && jb.state.Terminal() {
			if jb.state == api.StateDone {
				s.releaseLocked(jb.doc)
			}
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
		if len(s.jobs) <= s.cfg.MaxJobsRetained {
			kept = append(kept, s.order[i+1:]...)
			break
		}
	}
	s.order = kept
}

// Subscription is one live event stream over a job: the replay of
// everything already emitted plus a channel that closes after the
// terminal state event — or early, when Cancel is called or the service
// dropped the subscriber for lagging (Lagged then reports true and the
// consumer must surface api.EventLagged and re-subscribe for the truth).
type Subscription struct {
	Replay []api.Event
	Events <-chan api.Event

	s   *Service
	jb  *job
	sub *subscriber
}

// Cancel detaches the subscription; the Events channel closes. Idempotent
// and safe after the stream already ended.
func (su *Subscription) Cancel() {
	su.s.mu.Lock()
	defer su.s.mu.Unlock()
	if _, live := su.jb.subs[su.sub]; live {
		close(su.sub.ch)
		delete(su.jb.subs, su.sub)
		su.s.met.sseSubs.Add(-1)
	}
}

// Lagged reports whether the service dropped this subscription for
// falling behind. Meaningful once Events has closed.
func (su *Subscription) Lagged() bool {
	su.s.mu.Lock()
	defer su.s.mu.Unlock()
	return su.sub.lagged
}

// Subscribe opens an event stream over a job. For already-finished jobs
// the channel arrives closed and the replay is complete; a done job's
// replay is derived from its document outside s.mu, and a document that
// does not read is an error, never part of a replay.
func (s *Service) Subscribe(id string) (*Subscription, error) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	depth := s.cfg.SubscriberBuffer
	if jb.state.Terminal() {
		depth = 0 // closed below, before anything is sent
	}
	sub := &subscriber{ch: make(chan api.Event, depth)}
	su := &Subscription{Events: sub.ch, s: s, jb: jb, sub: sub}
	if jb.state.Terminal() {
		close(sub.ch)
	} else {
		jb.subs[sub] = struct{}{}
		s.met.sseSubs.Add(1)
	}
	done, doc := jb.state == api.StateDone, jb.doc
	if !done {
		su.Replay = append([]api.Event(nil), jb.events...)
	}
	s.mu.Unlock()
	if !done {
		return su, nil
	}
	var err error
	if su.Replay, err = replay(id, doc); err != nil {
		return nil, err
	}
	return su, nil
}

// statusLocked renders a job's API view without its result — a handful of
// small fields, all that is ever copied under s.mu. Single-job surfaces
// attach a done job's result outside the lock (withResult, or the HTTP
// handler's splice of the stored document). Callers hold s.mu.
func (s *Service) statusLocked(jb *job) api.JobStatus {
	st := api.JobStatus{
		ID:                jb.id,
		State:             jb.state,
		Tenant:            jb.tenant,
		Priority:          jb.req.Priority,
		Request:           jb.req,
		Submitted:         jb.submitted,
		TrialsDone:        jb.trials,
		Error:             jb.errMsg,
		PredictedDuration: jb.predicted,
	}
	if jb.state == api.StateQueued {
		if pos := s.disp.q.Position(jb.id); pos >= 0 {
			st.QueuePosition = &pos
		}
	}
	if !jb.started.IsZero() {
		t := jb.started
		st.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		st.Finished = &t
	}
	return st
}

// lookup returns one job's status and, once it is done, its document.
func (s *Service) lookup(id string) (api.JobStatus, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return api.JobStatus{}, "", ErrNotFound
	}
	return s.statusLocked(jb), jb.doc, nil
}

// Job returns one job's status (with result once done).
func (s *Service) Job(id string) (api.JobStatus, error) {
	st, doc, err := s.lookup(id)
	if err != nil {
		return st, err
	}
	return withResult(st, doc)
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel aborts a job: queued jobs transition to cancelled immediately,
// running jobs are interrupted at their next trial boundary (the status
// returned may therefore still read "running"; poll or subscribe for the
// terminal event). Cancelling a finished job returns ErrTerminal.
func (s *Service) Cancel(id string) (api.JobStatus, error) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return api.JobStatus{}, ErrNotFound
	}
	switch {
	case jb.state.Terminal():
		st, doc := s.statusLocked(jb), jb.doc
		s.mu.Unlock()
		st, err := withResult(st, doc)
		if err == nil {
			err = ErrTerminal
		}
		return st, err
	case jb.state == api.StateQueued:
		s.finishLocked(jb, api.StateCancelled, "")
		st := s.statusLocked(jb)
		s.mu.Unlock()
		s.cfg.Logf("service: %s cancelled while queued", id)
		return st, nil
	default: // running
		jb.cancel()
		st := s.statusLocked(jb)
		s.mu.Unlock()
		return st, nil
	}
}

// GroundTruthStats reports the shared similarity database.
func (s *Service) GroundTruthStats() api.GroundTruthStats { return s.gt.Info() }

// ExportGroundTruth streams the full database in the snapshot wire format
// (legacy-compatible: the export loads back via ImportGroundTruth, the
// -gt flag, or a pre-refactor deployment).
func (s *Service) ExportGroundTruth(w io.Writer) error {
	return gt.Save(w, s.gt)
}

// ImportGroundTruth merges entries into the shared database (it does not
// replace existing knowledge) and returns how many were added. Invalid
// entries reject the whole batch (HTTP 400) before anything is applied;
// a store failure mid-apply is a server-side error (HTTP 500) reported
// with the count that did land — the applied prefix stays live.
func (s *Service) ImportGroundTruth(entries []gt.Entry) (int, error) {
	if err := gt.Validate(s.gt, entries); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	added, err := s.addAll(entries)
	if err != nil {
		return added, fmt.Errorf("service: import applied %d/%d entries: %v", added, len(entries), err)
	}
	s.snapshotGT()
	return added, nil
}

// addAll uses the store's bulk path when it has one (the persistent
// wrapper batches the WAL append into a single write+fsync) and falls
// back to entry-at-a-time adds otherwise.
func (s *Service) addAll(entries []gt.Entry) (int, error) {
	if ba, ok := s.gt.(interface {
		AddAll(entries []gt.Entry) (int, error)
	}); ok {
		return ba.AddAll(entries)
	}
	added := 0
	for _, e := range entries {
		if err := s.gt.Add(e); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}

// Health reports queue depths, the dispatch policy and per-tenant
// wait-time statistics for the liveness endpoint. Every number is read
// back from the metrics registry (the tenant gauge rows, the wait
// sketches, and — via Fleet — the execution plane's lease counters), so
// /healthz and /metrics can never disagree about the same quantity.
func (s *Service) Health() api.Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	queued, running := s.disp.countsLocked()
	h := api.Health{
		Status:      "ok",
		Queued:      queued,
		Running:     running,
		Workers:     s.cfg.Workers,
		JobPolicy:   string(s.disp.q.Policy()),
		ExecBackend: "local",
		Tenants:     s.disp.healthLocked(),
	}
	if s.cfg.Remote != nil {
		fs := s.cfg.Remote.Fleet()
		h.ExecBackend = "remote"
		h.Fleet = &fs
	}
	return h
}

// MetricsRegistry exposes the registry the service publishes into: the
// Remote's when one is configured.
func (s *Service) MetricsRegistry() *metrics.Registry { return s.reg }

// Shutdown stops the service: no new submissions or dispatches, the
// execution plane drains, running jobs are cancelled at their next trial
// boundary and finish, queued jobs are cancelled, and the shared ground
// truth takes its final snapshot.
// Knowledge that cancelled jobs already contributed to the database
// survives in that snapshot.
//
// On the remote backend the drain is graceful and bounded: lease
// issuance stops immediately, in-flight trials on the worker fleet get
// up to Config.DrainTimeout to commit, and whatever is still outstanding
// at the deadline fails its job — an operator sees "failed: execution
// plane draining", never a silently lost job.
//
// Idempotent and blocking: every caller returns only once the shutdown —
// whoever initiated it — has fully completed (sync.Once.Do blocks
// latecomers), which lets it run both as the HTTP server's pre-shutdown
// hook (httpserve's preShutdown — BEFORE the listener closes, so remote
// workers can still commit; http.Server.RegisterOnShutdown would run
// too late) and again from the daemon's main goroutine.
func (s *Service) Shutdown() {
	s.shutdown.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()

		if s.cfg.Remote != nil {
			// Drain before cancelling: trials already on the fleet are
			// paid for — give them the deadline to commit, then fail the
			// rest. Jobs blocked on a failed trial finish immediately.
			s.cfg.Remote.Drain(s.cfg.DrainTimeout)
		}
		s.stop()        // interrupt running jobs
		s.wg.Wait()     // running jobs finish, now cancelled
		s.drainQueued() // jobs still queued become cancelled
		if s.cfg.Remote != nil {
			s.cfg.Remote.Close() // sever the streams; late worker calls get errors
		}
		if s.persist != nil {
			// Final compaction + WAL close. Knowledge cancelled jobs
			// already contributed survives in the snapshot.
			if err := s.persist.Close(); err != nil {
				s.cfg.Logf("service: final ground-truth compaction failed: %v", err)
			}
		}
	})
}

// drainQueued cancels the never-started jobs in the order they would have
// dispatched, so a shutdown replays exactly.
func (s *Service) drainQueued() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		next, ok := s.disp.q.Pop()
		if !ok {
			return
		}
		s.finishLocked(s.jobs[next.ID], api.StateCancelled, "")
	}
}
