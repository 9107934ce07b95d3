package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// Span names. Every span is recorded from this package, around a call
// into a layer's public surface; nothing inside the program is touched.
const (
	spanJob          = "job"                 // client: submit call → result in hand
	spanClientSubmit = "client.submit"       // client: POST /v1/jobs round trip
	spanClientFetch  = "client.result_fetch" // client: GET /v1/jobs/{id} after the terminal event
	spanClientRead   = "client.status_read"  // client: one status-read workload GET
	spanHTTPSubmit   = "service.http_submit" // handler: POST /v1/jobs
	spanHTTPStatus   = "service.http_status" // handler: GET /v1/jobs/{id}
	spanHTTPEvents   = "service.http_events" // handler: the SSE stream
	spanQueue        = "service.queue"       // JobStatus.Submitted → Started
	spanRun          = "service.run"         // JobStatus.Started → Finished
	spanNotify       = "service.notify"      // JobStatus.Finished → terminal event seen
	spanExecRun      = "exec.run"            // Backend.Run of one searcher batch
	spanOnEpoch      = "core.on_epoch"       // one Trial.Observer callback
	spanGTLookup     = "gt.lookup"
	spanGTAdd        = "gt.add"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Parent is the span that caused it (0 = none); Key names
// the job spec the work belongs to and Job the job id once resolved.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Start  int64
	End    int64
	Key    string
	Job    string
	N      int // exec.run: trials in the batch
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer is the untraced run: no decorator is installed at all.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// links maps an epoch's profile to the epoch callback that received
	// it and the job spec it ran for. The ground-truth store sees neither
	// a job nor a trial in its arguments — only a profile's features; the
	// features are the thread from a Lookup back to the callback that
	// issued it, and from an Add back to the job whose trial it records.
	linkMu sync.Mutex
	links  map[uint64]link

	harvestMu   sync.Mutex
	harvest     []exec.Trial                 // trial bodies for the probes, observers stripped
	harvestKey  map[workload.Workload]string // the one job spec harvested per workload
	harvestSeen map[string]bool              // spec#trial already kept
}

type link struct {
	span int64 // the core.on_epoch span
	key  string
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), links: map[uint64]link{}} }

// since converts a wall-clock instant to the tracer's clock. Instants
// taken in this process carry a monotonic reading and convert exactly;
// JobStatus timestamps crossed JSON and fall back to the wall clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns it unfinished; close stores it.
func (t *tracer) open(name string, parent int64, key string) span {
	return span{ID: t.nextID.Add(1), Parent: parent, Name: name, Key: key, Start: t.now()}
}

func (t *tracer) close(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// featureKey condenses a profile's feature vector to a map key. Profiles
// carry per-epoch sampling noise, so the leading features identify one.
func featureKey(features []float64) uint64 {
	var k uint64
	for _, f := range features[:min(4, len(features))] {
		k = k*0x9e3779b97f4a7c15 + math.Float64bits(f)
	}
	return k
}

func (t *tracer) link(features []float64, l link) {
	k := featureKey(features)
	t.linkMu.Lock()
	t.links[k] = l
	t.linkMu.Unlock()
}

func (t *tracer) linked(features []float64) link {
	k := featureKey(features)
	t.linkMu.Lock()
	defer t.linkMu.Unlock()
	return t.links[k]
}

// ---- HTTP seam -----------------------------------------------------------

type spanCtxKey struct{}

// withSpan tags a client call's context so the transport can tell the
// handler which client span caused the request.
func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s.ID)
}

const spanHeader = "X-Bench-Span"

// spanTransport forwards the calling span's id as a request header.
type spanTransport struct{ base http.RoundTripper }

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanCtxKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return st.base.RoundTrip(r)
}

// middleware times the job API's handlers from outside. The worker
// routes are passed through untimed: a stream upgrade lives as long as
// the worker does and is no request of a tenant's.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			name = spanHTTPSubmit
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
			name = spanHTTPEvents
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			name = spanHTTPStatus
		}
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := t.open(name, parent, "")
		if name != spanHTTPSubmit {
			s.Job = strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/events")
		}
		next.ServeHTTP(w, r)
		t.close(s)
	})
}

// ---- execution seam ------------------------------------------------------

// trialSeedMix inverts tune's trial-seed derivation (job seed XOR
// (id+1)·φ64), recovering the job seed from any of the job's trials.
const trialSeedMix = 0x9e3779b97f4a7c15

// specKey names a job spec the way both sides of the seam can derive it:
// the client from its request, the backend decorator from a trial.
func specKey(workloadName string, seed uint64, pipetuneMode bool) string {
	mode := "v1"
	if pipetuneMode {
		mode = "pt"
	}
	return workloadName + "|" + strconv.FormatUint(seed, 10) + "|" + mode
}

func trialKey(tr exec.Trial) string {
	return specKey(tr.Workload.Name(), tr.Seed^(uint64(tr.ID)+1)*trialSeedMix, tr.Observer != nil)
}

// tracedBackend decorates the execution backend: one span per batch, one
// child span per epoch callback (wrapping observers that exist, never
// adding one), and a harvest of trial bodies for the layer probes.
type tracedBackend struct {
	exec.Backend
	t *tracer
}

func (b tracedBackend) Run(ctx context.Context, trials []exec.Trial, maxParallel int) ([]*trainer.Result, []error) {
	if len(trials) == 0 {
		return b.Backend.Run(ctx, trials, maxParallel)
	}
	s := b.t.open(spanExecRun, 0, trialKey(trials[0]))
	s.N = len(trials)
	b.t.keep(trials)
	wrapped := make([]exec.Trial, len(trials))
	for i, tr := range trials {
		if obs := tr.Observer; obs != nil {
			tr.Observer = trainer.ObserverFunc(func(seed uint64, w workload.Workload, h params.Hyper, st trainer.EpochStats) *params.SysConfig {
				es := b.t.open(spanOnEpoch, s.ID, s.Key)
				b.t.link(st.Profile.Features(), link{es.ID, s.Key})
				next := obs.OnEpochEnd(seed, w, h, st)
				b.t.close(es)
				return next
			})
		}
		wrapped[i] = tr
	}
	res, errs := b.Backend.Run(ctx, wrapped, maxParallel)
	b.t.close(s)
	return res, errs
}

// keep harvests, per workload, the trials of the first pipetune job seen.
// Pipetune jobs only, so that every workload harvests the same spec for a
// given seed (the first pipetune job of each catalog entry) and the layer
// probes are comparable across workloads.
func (t *tracer) keep(trials []exec.Trial) {
	if trials[0].Observer == nil {
		return
	}
	key := trialKey(trials[0])
	t.harvestMu.Lock()
	defer t.harvestMu.Unlock()
	if owner, ok := t.harvestKey[trials[0].Workload]; ok && owner != key {
		return
	}
	if t.harvestKey == nil {
		t.harvestKey = map[workload.Workload]string{}
		t.harvestSeen = map[string]bool{}
	}
	t.harvestKey[trials[0].Workload] = key
	for _, tr := range trials {
		id := key + "#" + strconv.Itoa(tr.ID)
		if t.harvestSeen[id] { // a later occurrence of the same recurring spec
			continue
		}
		t.harvestSeen[id] = true
		tr.Observer, tr.Restart = nil, nil
		t.harvest = append(t.harvest, tr)
	}
}

func (t *tracer) harvested() []exec.Trial {
	t.harvestMu.Lock()
	defer t.harvestMu.Unlock()
	return append([]exec.Trial(nil), t.harvest...)
}

// ---- ground-truth seam ---------------------------------------------------

// tracedStore decorates the ground-truth store outside the persistence
// wrapper, so an Add span includes the WAL append and its fsync.
type tracedStore struct {
	gt.Store
	t *tracer
}

func (s tracedStore) Lookup(features []float64) (params.SysConfig, bool) {
	at := s.t.linked(features)
	sp := s.t.open(spanGTLookup, at.span, at.key)
	cfg, ok := s.Store.Lookup(features)
	s.t.close(sp)
	return cfg, ok
}

func (s tracedStore) Add(e gt.Entry) error {
	// An add happens in the job's event loop, after the epoch callback
	// that profiled the trial has long returned: it belongs to that
	// callback's job, not to the callback.
	sp := s.t.open(spanGTAdd, 0, s.t.linked(e.Features).key)
	err := s.Store.Add(e)
	s.t.close(sp)
	return err
}

// ---- Chrome trace-event output -------------------------------------------

// traceEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto): timestamps and durations in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as trace-event JSON, one track per
// job spec so a job's client, service, exec, core and gt spans stack.
func writeChromeTrace(path string, spans []span) error {
	tracks := map[string]int{}
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		track := s.Key
		if track == "" {
			track = s.Job
		}
		tid, ok := tracks[track]
		if !ok {
			tid = len(tracks) + 1
			tracks[track] = tid
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, traceEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job, "spec": s.Key},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
