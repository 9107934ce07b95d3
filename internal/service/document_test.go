package service

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pipetune"
	"pipetune/api"
)

// A finished job is an immutable document (see type job). These tests pin
// what that must not change — every response body, byte for byte — and
// what it is for: a retained job that costs a few KB of pointer-free
// bytes, read without a clone, an encoder pass or the registry lock.

// finishJob runs req to its terminal state in-process (no HTTP client, so
// nothing but the registry retains anything of it).
func finishJob(t testing.TB, svc *Service, req api.JobRequest) string {
	t.Helper()
	st, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	su, err := svc.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer su.Cancel()
	for range su.Events {
	}
	return st.ID
}

// do issues one request straight at the handler.
func do(t testing.TB, h http.Handler, method, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// encoded is the body writeJSON produces for v: the pre-document wire
// format every job endpoint must keep.
func encoded(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// decodeStatus parses a job body strictly.
func decodeStatus(t testing.TB, body []byte) api.JobStatus {
	t.Helper()
	var st api.JobStatus
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return st
}

// TestStatusBytesUnchanged: for the Table 3 catalog in both modes, the
// body of GET /v1/jobs/{id} is what encoding api.JobStatus with the
// library's own *tune.JobResult attached produces, trailing newline
// included. The oracle never touches the stored document: a second,
// identical System runs the same specs in the same order as a library
// caller would (so both ground truths grow alike), and only the header
// fields — timestamps — are taken from the response.
func TestStatusBytesUnchanged(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	lib := newSystem(t)

	for _, w := range pipetune.Catalog() {
		for _, mode := range []string{api.ModeTuneV1, api.ModePipeTune} {
			req := api.JobRequest{Workload: w.Name(), Mode: mode, Seed: 7, Epochs: 2}
			id := finishJob(t, svc, req)
			rec := do(t, h, http.MethodGet, "/v1/jobs/"+id)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("%s %s: HTTP %d, Content-Type %q", w.Name(), mode, rec.Code, rec.Header().Get("Content-Type"))
			}
			want := decodeStatus(t, rec.Body.Bytes())
			if want.State != api.StateDone || want.Result == nil {
				t.Fatalf("%s %s: state %v, result %v", w.Name(), mode, want.State, want.Result != nil)
			}

			spec := lib.JobSpec(w)
			spec.Seed, spec.BaseHyper.Epochs = req.Seed, req.Epochs
			run := lib.RunBaseline
			if mode == api.ModePipeTune {
				run = lib.RunPipeTune
			}
			if want.Result, err = run(spec); err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != encoded(t, want) {
				t.Errorf("%s %s: GET body differs from the encoded JobStatus\n got: %.200s…\nwant: %.200s…", w.Name(), mode, got, encoded(t, want))
			}
		}
	}
}

// TestNonDoneBodiesUnchanged: jobs without a document — running, failed,
// cancelled — are served as before, and cancelling a done job still
// answers 409 with the same error body.
func TestNonDoneBodiesUnchanged(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	check := func(name, id string, state api.JobState) {
		t.Helper()
		rec := do(t, h, http.MethodGet, "/v1/jobs/"+id)
		st := decodeStatus(t, rec.Body.Bytes())
		if rec.Code != http.StatusOK || st.State != state || st.Result != nil {
			t.Errorf("%s: HTTP %d state %v result %v, want 200 %v without result", name, rec.Code, st.State, st.Result != nil, state)
		}
		if got := rec.Body.String(); got != encoded(t, st) || strings.Contains(got, `"result"`) {
			t.Errorf("%s: body %q is not the encoded status", name, got)
		}
	}

	// Running: the first trial event proves the job started, and it has
	// twenty more trials to go.
	st, err := svc.Submit(smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	su, err := svc.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-su.Events
	check("running", st.ID, api.StateRunning)
	for range su.Events {
	}
	su.Cancel()
	done := st.ID

	// Failed: a job held at dispatch finishes through the terminal step
	// with an error; behind it, a queued job is cancelled.
	held := hold(svc)
	failed, err := svc.Submit(smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := svc.Submit(smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, http.MethodDelete, "/v1/jobs/"+cancelled.ID)
	if got := decodeStatus(t, rec.Body.Bytes()); rec.Code != http.StatusOK || got.State != api.StateCancelled || rec.Body.String() != encoded(t, got) {
		t.Errorf("DELETE queued: HTTP %d body %q", rec.Code, rec.Body)
	}
	check("cancelled", cancelled.ID, api.StateCancelled)
	svc.finish(held.held[0].jb, nil, errors.New("boom"))
	check("failed", failed.ID, api.StateFailed)

	rec = do(t, h, http.MethodDelete, "/v1/jobs/"+done)
	if want := "{\"error\":\"service: job already finished\"}\n"; rec.Code != http.StatusConflict || rec.Body.String() != want {
		t.Errorf("DELETE done: HTTP %d body %q, want 409 %q", rec.Code, rec.Body, want)
	}
	if st, err := svc.Cancel(done); err != ErrTerminal || st.Result == nil {
		t.Errorf("Cancel(done) = result %v, %v; want the result and ErrTerminal", st.Result != nil, err)
	}
}

// retainedPerJobBytes bounds what one finished 22-trial lenet job may
// keep alive in the registry: ≈ 25 % above the 8.5–8.9 KB measured
// (document 4.3 KB, replay log and its trial events 3.1 KB, the job, its
// spec and its map slots). The parent commit's result graph measured
// 31.0 KB.
const retainedPerJobBytes = 11 << 10

// TestFinishedJobRetainsNoGraph: a done job keeps its document and no
// result graph, so N of them cost a small pinned number of heap bytes
// each.
func TestFinishedJobRetainsNoGraph(t *testing.T) {
	sys := newSystem(t, pipetune.WithTrialCache(8<<20))
	svc, err := New(Config{System: sys, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	// tune-v1 leaves the ground truth alone, and after the first job the
	// trial cache replays every trial: only the registry grows.
	req := api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	finishJob(t, svc, req)
	const n = 48
	svc.mu.Lock()
	svc.order = append(make([]string, 0, n+1), svc.order...) // no growth inside the window
	svc.mu.Unlock()
	before := heap()
	for range n {
		id := finishJob(t, svc, req)
		svc.mu.Lock()
		jb := svc.jobs[id]
		state, doc, events := jb.state, jb.doc, jb.events
		svc.mu.Unlock()
		if state != api.StateDone || len(doc) == 0 {
			t.Fatalf("%s: state %v with a %d-byte document", id, state, len(doc))
		}
		if cap(events) != len(events) {
			t.Fatalf("%s: replay log len %d, cap %d: retained append slack", id, len(events), cap(events))
		}
	}
	perJob := (int64(heap()) - int64(before)) / n
	t.Logf("%d finished jobs retain %d B each", n, perJob)
	if perJob > retainedPerJobBytes {
		t.Errorf("a finished job retains %d B, want <= %d", perJob, retainedPerJobBytes)
	}
}

// TestConcurrentReadsWhileFinishing races every read surface against jobs
// that are turning terminal (run under -race in CI): each reader sees
// either a job without a result or a done job with a complete one, and
// HTTP bodies always parse.
func TestConcurrentReadsWhileFinishing(t *testing.T) {
	sys := newSystem(t, pipetune.WithTrialCache(8<<20))
	svc, err := New(Config{System: sys, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	req := api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7, Epochs: 2}
	const jobs = 8
	ids := make([]string, jobs)
	for i := range ids {
		st, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	verify := func(st api.JobStatus) {
		if done := st.State == api.StateDone; done != (st.Result != nil) {
			t.Errorf("%s: state %v, result %v", st.ID, st.State, st.Result != nil)
		} else if done && (st.Result.Best == nil || len(st.Result.Trials) != st.TrialsDone) {
			t.Errorf("%s: torn result: %d trials, %d done", st.ID, len(st.Result.Trials), st.TrialsDone)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[i%jobs]
				switch i % 3 {
				case 0:
					rec := do(t, h, http.MethodGet, "/v1/jobs/"+id)
					if rec.Code != http.StatusOK {
						t.Errorf("GET %s: HTTP %d", id, rec.Code)
						continue
					}
					var st api.JobStatus
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
						t.Errorf("GET %s: %v", id, err)
						continue
					}
					verify(st)
				case 1:
					st, err := svc.Job(id)
					if err != nil {
						t.Errorf("Job(%s): %v", id, err)
						continue
					}
					verify(st)
					if st.Result != nil {
						st.Result.Trials[0].Score = -1 // private copy: must reach no one
					}
				default:
					for _, st := range svc.Jobs() {
						if st.Result != nil {
							t.Errorf("list carries a result for %s", st.ID)
						}
					}
				}
			}
		}()
	}
	for _, id := range ids {
		su, err := svc.Subscribe(id)
		if err != nil {
			t.Fatal(err)
		}
		for range su.Events {
		}
		su.Cancel()
	}
	close(stop)
	readers.Wait()
	for _, id := range ids {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		verify(st)
		if st.State != api.StateDone || st.Result.Trials[0].Score == -1 {
			t.Errorf("%s: state %v, trial 0 score %v", id, st.State, st.Result.Trials[0].Score)
		}
	}
}

// TestCorruptDocumentIs500: a stored document that does not inflate or
// parse is an error on every read surface — never a panic, never half a
// 200.
func TestCorruptDocumentIs500(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	id := finishJob(t, svc, api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7, Epochs: 1})
	svc.mu.Lock()
	good := svc.jobs[id].doc
	svc.mu.Unlock()

	var tornJSON bytes.Buffer // inflates fine, parses never
	fw, _ := flate.NewWriter(&tornJSON, flate.BestSpeed)
	_, _ = fw.Write([]byte(`{"trials":[`))
	_ = fw.Close()
	flipped := bytes.Clone(good)
	for i := range flipped[:64] {
		flipped[i] ^= 0xff
	}
	for name, doc := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"flipped":   flipped,
		"empty":     {},
		"torn JSON": tornJSON.Bytes(),
	} {
		svc.mu.Lock()
		svc.jobs[id].doc = doc
		svc.mu.Unlock()
		if name != "torn JSON" { // the handler splices bytes; only flate can tell it no
			rec := do(t, h, http.MethodGet, "/v1/jobs/"+id)
			var apiErr api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); rec.Code != http.StatusInternalServerError || err != nil || apiErr.Message == "" {
				t.Errorf("%s: GET = HTTP %d body %q, want a 500 error body", name, rec.Code, rec.Body)
			}
		}
		if st, err := svc.Job(id); err == nil || st.Result != nil {
			t.Errorf("%s: Job() = result %v, err %v; want an error", name, st.Result != nil, err)
		}
		if _, err := svc.Cancel(id); err == nil || err == ErrTerminal {
			t.Errorf("%s: Cancel() = %v, want the read error", name, err)
		}
	}

	// The pooled inflater must come back clean from every failure.
	svc.mu.Lock()
	svc.jobs[id].doc = good
	svc.mu.Unlock()
	if st, err := svc.Job(id); err != nil || st.Result == nil {
		t.Errorf("after corrupt reads: Job() = result %v, err %v", st.Result != nil, err)
	}
}

// readAllocs is the alloc gate of one done-job read through the handler:
// request routing, the header's encoding and the recorder. Measured 26,
// and 34 under -race, whose sync.Pool drops a quarter of its Puts; the
// parent commit's clone + reflective encode measured 365 for the same
// 22-trial job. readAllocsGrowth is what quadrupling the trials may add,
// for the one thing that grows with the document: compress/flate builds
// fresh Huffman link tables (a few small slices) for each 64 KB deflate
// block it inflates.
const (
	readAllocs       = 40
	readAllocsGrowth = 16
)

// discardRecorder is a ResponseRecorder whose body goes nowhere, so the
// gate counts the handler's allocations and not the recorder's buffer
// growth.
type discardRecorder struct {
	*httptest.ResponseRecorder
	n int
}

func (d *discardRecorder) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discardRecorder) WriteString(s string) (int, error) {
	d.n += len(s)
	return len(s), nil
}

// TestFinishedJobReadAllocs: reading a done job allocates a small number
// of objects that does not follow its trial count — the inflater and its
// buffer are pooled, and nothing walks the trials.
func TestFinishedJobReadAllocs(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	id := finishJob(t, svc, api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7})
	st, err := svc.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	var allocs [2]float64
	var sizes [2]int
	for i := range allocs {
		allocs[i] = testing.AllocsPerRun(200, func() {
			rec := &discardRecorder{ResponseRecorder: httptest.NewRecorder()}
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK || rec.n == 0 {
				t.Fatalf("HTTP %d, %d bytes", rec.Code, rec.n)
			}
			sizes[i] = rec.n
		})
		// Second pass: the same job with four times the trials.
		st.Result.Trials = append(st.Result.Trials, st.Result.Trials...)
		st.Result.Trials = append(st.Result.Trials, st.Result.Trials...)
		doc, err := svc.render(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		svc.jobs[id].doc = doc
		svc.mu.Unlock()
	}
	t.Logf("read of a %d B body: %.0f allocs; of a %d B body: %.0f allocs", sizes[0], allocs[0], sizes[1], allocs[1])
	if sizes[1] < 3*sizes[0] {
		t.Fatalf("bodies of %d and %d bytes do not tell constant from proportional", sizes[0], sizes[1])
	}
	if allocs[0] > readAllocs {
		t.Errorf("a read allocates %.0f objects, want <= %d", allocs[0], readAllocs)
	}
	if extra := allocs[1] - allocs[0]; extra > readAllocsGrowth {
		t.Errorf("4x the trials cost %.0f more allocations per read, want <= %d", extra, readAllocsGrowth)
	}
}
