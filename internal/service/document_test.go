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
	"unsafe"

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

// TestLateSubscriberReadsLiveStream: a done job keeps no event log, so a
// subscriber that attaches after the job finished reads a replay derived
// from the stored document. Its SSE body must be, byte for byte, the one
// a subscriber attached before dispatch read live.
func TestLateSubscriberReadsLiveStream(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	for _, w := range []string{"lenet/mnist", "cnn/news20"} {
		for _, mode := range []string{api.ModeTuneV1, api.ModePipeTune} {
			held := hold(svc)
			st, err := svc.Submit(api.JobRequest{Workload: w, Mode: mode, Seed: 7, Epochs: 2})
			if err != nil {
				t.Fatal(err)
			}
			live := make(chan *httptest.ResponseRecorder)
			go func() { live <- do(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events") }()
			for attached := false; !attached; runtime.Gosched() {
				svc.mu.Lock()
				attached = len(svc.jobs[st.ID].subs) == 1
				svc.mu.Unlock()
			}
			held.release()
			early := <-live
			late := do(t, h, http.MethodGet, "/v1/jobs/"+st.ID+"/events")

			final, err := svc.Job(st.ID)
			if err != nil || final.State != api.StateDone {
				t.Fatalf("%s %s: ended %v, %v", w, mode, final.State, err)
			}
			frames := strings.Count(early.Body.String(), "\n\n")
			if early.Code != http.StatusOK || frames != final.TrialsDone+1 || final.TrialsDone == 0 {
				t.Fatalf("%s %s: live stream HTTP %d with %d frames for %d trials", w, mode, early.Code, frames, final.TrialsDone)
			}
			if late.Code != http.StatusOK || late.Body.String() != early.Body.String() {
				t.Errorf("%s %s: late stream (HTTP %d) differs from the live one\nlate: %.300s\nlive: %.300s", w, mode, late.Code, late.Body, early.Body)
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
	svc.finish(held.held[0].jb, "", errors.New("boom"))
	check("failed", failed.ID, api.StateFailed)

	rec = do(t, h, http.MethodDelete, "/v1/jobs/"+done)
	if want := "{\"error\":\"service: job already finished\"}\n"; rec.Code != http.StatusConflict || rec.Body.String() != want {
		t.Errorf("DELETE done: HTTP %d body %q, want 409 %q", rec.Code, rec.Body, want)
	}
	if st, err := svc.Cancel(done); err != ErrTerminal || st.Result == nil {
		t.Errorf("Cancel(done) = result %v, %v; want the result and ErrTerminal", st.Result != nil, err)
	}
}

// retainedPerJobBytes bounds what one more finished 22-trial lenet job
// whose result another retained job already holds may keep alive in the
// registry: ≈ 25 % above the 0.9–1.3 KB measured (the job record and its
// map and order slots; the 3.8 KB document is shared). A document per
// job measured 4.9–5.3 KB; retaining the replay log, the spec and the
// subscriber map too, 8.9–9.1 KB; the result graph before documents,
// 31.0 KB.
const retainedPerJobBytes = 1625

// TestFinishedJobRetainsNoGraph: a done job keeps its document and no
// result graph, replay log, spec or subscriber map, and jobs with one
// result share one document, so N of them cost a small pinned number of
// heap bytes each.
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
	docBytes := 0
	for range n {
		id := finishJob(t, svc, req)
		svc.mu.Lock()
		jb := svc.jobs[id]
		state, doc, events, subs, spec := jb.state, jb.doc, jb.events, jb.subs, jb.spec
		svc.mu.Unlock()
		if state != api.StateDone || len(doc) == 0 {
			t.Fatalf("%s: state %v with a %d-byte document", id, state, len(doc))
		}
		docBytes = len(doc)
		if events != nil || subs != nil {
			t.Fatalf("%s: a done job keeps a %d-event replay log and a subscriber map %v", id, len(events), subs != nil)
		}
		if spec.HyperSpace != nil || spec.SystemSpace != nil {
			t.Fatalf("%s: a done job keeps its spec's spaces", id)
		}
	}
	perJob := (int64(heap()) - int64(before)) / n
	t.Logf("%d finished jobs retain %d B each beside the %d B document they share", n, perJob, docBytes)
	if perJob > retainedPerJobBytes {
		t.Errorf("a finished job retains %d B, want <= %d", perJob, retainedPerJobBytes)
	}
}

// TestIdenticalResultsShareOneDocument: done jobs whose results are the
// same bytes hold one interned document, however they finished; another
// result gets a document of its own; every body is still its own job's;
// and a document goes, with its gauges, when the last job holding it is
// pruned. Two workers finish the identical pair at once (run under -race
// in CI).
func TestIdenticalResultsShareOneDocument(t *testing.T) {
	req := func(seed uint64) api.JobRequest {
		return api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: seed, Epochs: 2}
	}
	finishAll := func(svc *Service, reqs ...api.JobRequest) []string {
		ids := make([]string, len(reqs))
		for i, r := range reqs {
			st, err := svc.Submit(r)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = st.ID
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
		return ids
	}
	docOf := func(svc *Service, id string) string {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.jobs[id].doc
	}
	gauges := func(svc *Service, docs ...string) {
		t.Helper()
		size := 0
		for _, d := range docs {
			size += len(d)
		}
		n, b := svc.met.resultDocs.Value(), svc.met.resultDocBytes.Value()
		svc.mu.Lock()
		held := len(svc.docs)
		svc.mu.Unlock()
		if n != float64(len(docs)) || b != float64(size) || held != len(docs) {
			t.Errorf("%d documents held, gauges read %v documents of %v B; want %d of %d B", held, n, b, len(docs), size)
		}
	}

	svc, err := New(Config{System: newSystem(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	h := svc.Handler()
	ids := finishAll(svc, req(7), req(7))
	a, b := docOf(svc, ids[0]), docOf(svc, ids[1])
	if a == "" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("two jobs with one request hold %d and %d B at two addresses, want one document", len(a), len(b))
	}
	gauges(svc, a)
	ids = append(ids, finishAll(svc, req(8))...)
	c := docOf(svc, ids[2])
	if c == "" || c == a {
		t.Fatalf("seed 8 holds %d B equal to seed 7's: %v", len(c), c == a)
	}
	gauges(svc, a, c)
	for _, id := range ids {
		st, err := svc.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if doc, err := svc.render(st.Result); err != nil || doc != docOf(svc, id) {
			t.Errorf("%s: its result renders another document (%v)", id, err)
		}
		if rec := do(t, h, http.MethodGet, "/v1/jobs/"+id); rec.Body.String() != encoded(t, st) {
			t.Errorf("%s: GET body is not its own status and result\n got: %.200s…", id, rec.Body)
		}
	}

	// One job retained: a repeat keeps the document its predecessor held,
	// and another result prunes the last holder, taking the document.
	one, err := New(Config{System: newSystem(t), Workers: 1, MaxJobsRetained: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Shutdown()
	first := docOf(one, finishAll(one, req(7))[0])
	again := docOf(one, finishAll(one, req(7))[0])
	if unsafe.StringData(first) != unsafe.StringData(again) {
		t.Errorf("a repeat after its predecessor was pruned holds a new copy")
	}
	gauges(one, again)
	other := docOf(one, finishAll(one, req(8))[0])
	gauges(one, other)
	one.mu.Lock()
	stale, retained := one.docs[first], len(one.jobs)
	one.mu.Unlock()
	if stale != nil || retained != 1 {
		t.Errorf("the pruned jobs' document is still interned (%d jobs retained)", retained)
	}
}

// TestIdleServiceReleasesDeflater: the deflater is a working set. Once
// the last job has finished and a collection runs, the service holds none,
// and a later job with the same request renders through a new one into
// the first job's document: one interned string, one gauge count.
func TestIdleServiceReleasesDeflater(t *testing.T) {
	svc, err := New(Config{System: newSystem(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	req := api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7, Epochs: 2}
	// doneDoc reads a finished job's document; Job takes the registry
	// lock, so the terminal step that unpins the deflater has returned.
	doneDoc := func(id string) string {
		t.Helper()
		if st, err := svc.Job(id); err != nil || st.State != api.StateDone {
			t.Fatalf("%s: %v, %v", id, st.State, err)
		}
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.jobs[id].doc
	}
	held := func() bool {
		runtime.GC()
		svc.renderMu.Lock()
		defer svc.renderMu.Unlock()
		return svc.deflater.Value() != nil || svc.pinned.Load() != nil
	}
	first := doneDoc(finishJob(t, svc, req))
	if held() {
		t.Fatal("an idle service still holds its deflater after a collection")
	}
	again := doneDoc(finishJob(t, svc, req))
	if first == "" || unsafe.StringData(first) != unsafe.StringData(again) {
		t.Fatalf("a repeat rendered by a new deflater holds %d B at another address than the first's %d B", len(again), len(first))
	}
	if n := svc.met.resultDocs.Value(); n != 1 {
		t.Fatalf("pipetune_result_documents reads %v, want 1", n)
	}
	if held() {
		t.Fatal("the second deflater outlived its busy period")
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
// parse is an error on every read surface — the event stream's replay
// included — never a panic, never half a 200.
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
	flipped := []byte(good)
	for i := range flipped[:64] {
		flipped[i] ^= 0xff
	}
	for name, doc := range map[string]string{
		"truncated": good[:len(good)/2],
		"flipped":   string(flipped),
		"empty":     "",
		"torn JSON": tornJSON.String(),
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
		if su, err := svc.Subscribe(id); err == nil || su != nil {
			t.Errorf("%s: Subscribe() = %v, %v; want the read error", name, su, err)
		}
		rec := do(t, h, http.MethodGet, "/v1/jobs/"+id+"/events")
		var apiErr api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); rec.Code != http.StatusInternalServerError || err != nil || apiErr.Message == "" {
			t.Errorf("%s: GET events = HTTP %d body %q, want a 500 error body", name, rec.Code, rec.Body)
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
