package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pipetune"
	"pipetune/api"
	"pipetune/client"
)

// newSystem builds a small fast System for tests.
func newSystem(t *testing.T, opts ...pipetune.Option) *pipetune.System {
	t.Helper()
	sys, err := pipetune.New(append([]pipetune.Option{
		pipetune.WithSeed(42), pipetune.WithCorpusSize(128, 64),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newServer wires a Service over a fresh System behind an httptest server
// and returns a client speaking to it.
func newServer(t *testing.T, cfg Config) (*Service, *client.Client) {
	t.Helper()
	if cfg.System == nil {
		cfg.System = newSystem(t)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Shutdown()
	})
	return svc, client.New(srv.URL)
}

// smallReq keeps API-path jobs quick: few epochs, tight parallelism.
func smallReq(workload string) api.JobRequest {
	return api.JobRequest{Workload: workload, Seed: 7, Epochs: 3}
}

// TestEndToEndDeterminism is the acceptance-criteria test: submitting a
// Table 3 workload through the HTTP API with a fixed seed yields a
// JobResult.Best identical (bit-for-bit in its JSON serialisation) to
// running the same spec through System.RunPipeTune in-process.
func TestEndToEndDeterminism(t *testing.T) {
	_, cl := newServer(t, Config{})
	ctx := context.Background()

	req := smallReq("lenet/mnist")
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateQueued {
		t.Fatalf("submitted job state = %v, want queued", st.State)
	}
	final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job ended %v (err %q), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Best == nil {
		t.Fatal("done job has no result")
	}

	// Library path: a fresh identical System, the same spec the service
	// builds from the request.
	sys := newSystem(t)
	w, err := api.ParseWorkload(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	spec := sys.JobSpec(w)
	spec.Seed = req.Seed
	spec.BaseHyper.Epochs = req.Epochs
	libRes, err := sys.RunPipeTune(spec)
	if err != nil {
		t.Fatal(err)
	}

	apiBest, err := json.Marshal(final.Result.Best)
	if err != nil {
		t.Fatal(err)
	}
	libBest, err := json.Marshal(libRes.Best)
	if err != nil {
		t.Fatal(err)
	}
	if string(apiBest) != string(libBest) {
		t.Errorf("HTTP best != library best\n http: %s\n lib:  %s", apiBest, libBest)
	}
	if final.Result.TuningTime != libRes.TuningTime {
		t.Errorf("TuningTime: http %v != lib %v", final.Result.TuningTime, libRes.TuningTime)
	}
	if len(final.Result.Trials) != len(libRes.Trials) {
		t.Errorf("trial count: http %d != lib %d", len(final.Result.Trials), len(libRes.Trials))
	}
}

// TestConcurrentJobsShareGroundTruth submits two different workloads
// concurrently: both must complete, and the shared ground-truth store must
// show cross-job reuse — a warm database produces hits for a job that
// never probed those profiles itself.
func TestConcurrentJobsShareGroundTruth(t *testing.T) {
	_, cl := newServer(t, Config{Workers: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	finals := make([]api.JobStatus, 2)
	errs := make([]error, 2)
	for i, wl := range []string{"lenet/mnist", "cnn/mnist"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := cl.Submit(ctx, smallReq(wl))
			if err != nil {
				errs[i] = err
				return
			}
			finals[i], errs[i] = cl.Wait(ctx, st.ID, 20*time.Millisecond)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if finals[i].State != api.StateDone {
			t.Fatalf("job %d ended %v (err %q), want done", i, finals[i].State, finals[i].Error)
		}
	}
	gtAfterTwo, err := cl.GroundTruth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gtAfterTwo.Entries == 0 {
		t.Fatal("shared ground truth empty after two PipeTune jobs")
	}

	// Cross-job reuse: a third job over an already-seen workload should
	// land ground-truth hits accumulated from the earlier tenants.
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("third job ended %v, want done", final.State)
	}
	gtAfterThree, err := cl.GroundTruth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gtAfterThree.Hits <= gtAfterTwo.Hits {
		t.Errorf("no cross-job ground-truth hits: %d after warm job, %d before",
			gtAfterThree.Hits, gtAfterTwo.Hits)
	}
}

// TestEventStream verifies SSE delivery: every trial event arrives in
// sequence, the stream terminates with the job's terminal state, and the
// count matches the job's TrialsDone.
func TestEventStream(t *testing.T) {
	_, cl := newServer(t, Config{})
	ctx := context.Background()

	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	var (
		trials    int
		lastSeq   int
		terminal  api.JobState
		streamErr = cl.Stream(ctx, st.ID, func(ev api.Event) error {
			if ev.Seq != lastSeq+1 {
				t.Errorf("event seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			switch ev.Type {
			case api.EventTrial:
				if ev.Trial == nil {
					t.Error("trial event without trial payload")
				}
				trials++
			case api.EventState:
				terminal = ev.State
			}
			return nil
		})
	)
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	if terminal != api.StateDone {
		t.Fatalf("stream terminal state %v, want done", terminal)
	}
	if trials == 0 {
		t.Fatal("stream delivered no trial events")
	}
	final, err := cl.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.TrialsDone != trials {
		t.Errorf("streamed %d trials, status reports %d", trials, final.TrialsDone)
	}
	// A late subscriber replays the whole history.
	replayed := 0
	if err := cl.Stream(ctx, st.ID, func(api.Event) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != lastSeq {
		t.Errorf("late replay delivered %d events, want %d", replayed, lastSeq)
	}
}

// TestCancelRunning interrupts a job mid-run: a job submitted to a free
// slot is running when Submit returns, the full-size corpus keeps its
// first HyperBand batch busy long enough that a cancel lands before the
// job can finish, and the job must end cancelled, not done.
func TestCancelRunning(t *testing.T) {
	sys, err := pipetune.New(pipetune.WithSeed(42)) // default (large) corpus
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newServer(t, Config{System: sys})
	ctx := context.Background()

	st, err := cl.Submit(ctx, api.JobRequest{Workload: "lstm/news20", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cur, err := cl.Job(ctx, st.ID); err != nil {
		t.Fatal(err)
	} else if cur.State != api.StateRunning || cur.Started == nil {
		t.Fatalf("job submitted to a free slot is %v, want running", cur.State)
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCancelled {
		t.Fatalf("cancelled job ended %v, want cancelled", final.State)
	}
	if final.Result != nil {
		t.Error("cancelled job carries a result")
	}
	// Cancelling again is a conflict.
	if _, err := cl.Cancel(ctx, st.ID); err == nil {
		t.Error("second cancel succeeded, want conflict")
	} else if apiErr := new(api.Error); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
		t.Errorf("second cancel error = %v, want HTTP 409", err)
	}
}

// TestCancelQueued cancels a job that never started: Workers=1 keeps the
// second submission queued behind the first.
func TestCancelQueued(t *testing.T) {
	svc, cl := newServer(t, Config{Workers: 1})
	ctx := context.Background()

	first, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Submit(ctx, smallReq("cnn/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	// The first job holds the one slot unless it has already finished;
	// cancelling the second must work whether or not it is still queued.
	st, err := cl.Cancel(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled && st.State != api.StateRunning {
		t.Fatalf("cancel returned state %v", st.State)
	}
	final, err := cl.Wait(ctx, second.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateCancelled {
		t.Fatalf("queued-cancelled job ended %v, want cancelled", final.State)
	}
	if _, err := cl.Wait(ctx, first.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_ = svc
}

// TestAPIErrors covers the error surface: bad workload, unknown job,
// unknown mode.
func TestAPIErrors(t *testing.T) {
	_, cl := newServer(t, Config{})
	ctx := context.Background()

	cases := []struct {
		req  api.JobRequest
		code int
	}{
		{api.JobRequest{Workload: "resnet/imagenet"}, 400},
		{api.JobRequest{Workload: "lenet/mnist", Mode: "warp"}, 400},
		{api.JobRequest{Workload: "lenet/mnist", Objective: "loss"}, 400},
	}
	for _, tc := range cases {
		_, err := cl.Submit(ctx, tc.req)
		apiErr := new(api.Error)
		if !errors.As(err, &apiErr) || apiErr.StatusCode != tc.code {
			t.Errorf("Submit(%+v) error = %v, want HTTP %d", tc.req, err, tc.code)
		}
	}
	if _, err := cl.Job(ctx, "job-999999"); err == nil {
		t.Error("unknown job id returned no error")
	} else if apiErr := new(api.Error); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("unknown job error = %v, want HTTP 404", err)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Errorf("health = %+v, %v", h, err)
	}
}

// TestOutOfRangeEpochsRefusedBeforeAnID: a job tune would refuse at run
// time (epochs over the params range) is answered 400 at submission, and
// takes no job ID: the next accepted job is job-000001.
func TestOutOfRangeEpochsRefusedBeforeAnID(t *testing.T) {
	_, cl := newServer(t, Config{})
	ctx := context.Background()
	_, err := cl.Submit(ctx, api.JobRequest{Workload: "lenet/mnist", Epochs: 5000})
	if apiErr := new(api.Error); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("Submit with 5000 epochs = %v, want HTTP 400", err)
	}
	j, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000001" {
		t.Fatalf("first accepted job is %s, want job-000001 (the refused one burned an ID)", j.ID)
	}
	if final := waitAll(t, cl, []string{j.ID})[0]; final.State != api.StateDone {
		t.Fatalf("%s ended %v", final.ID, final.State)
	}
}

// gtEntries returns the service's ground-truth entries as a sorted list of
// their JSON forms, so two stores compare as multisets whatever their
// internal (shard) order.
func gtEntries(t *testing.T, svc *Service) []string {
	t.Helper()
	entries := svc.gt.Entries()
	out := make([]string, len(entries))
	for i, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// runJobToDone submits one small job and waits for it to report done.
func runJobToDone(t *testing.T, cl *client.Client) {
	t.Helper()
	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("job: %v state %v", err, final.State)
	}
}

// TestGroundTruthPersistenceAcrossRestart pins the durability property
// clients rely on: once a job reports done, every ground-truth entry it
// contributed survives a restart — after a crash (the service is dropped
// without Shutdown and recovery is snapshot + WAL replay) and after a
// graceful stop (the shutdown compaction) alike.
func TestGroundTruthPersistenceAcrossRestart(t *testing.T) {
	gtPath := filepath.Join(t.TempDir(), "gt.json")

	svc1, cl1 := newServer(t, Config{GTPath: gtPath})
	runJobToDone(t, cl1)
	want := gtEntries(t, svc1)
	if len(want) == 0 {
		t.Fatal("job produced no ground-truth entries")
	}

	// Crash: svc1 is abandoned as it stands, never shut down before the
	// reopen.
	svc2, _ := newServer(t, Config{GTPath: gtPath})
	if got := gtEntries(t, svc2); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash restart restored %d entries, want the job's %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}

	// Graceful stop: the final compaction folds the log into the snapshot.
	svc2.Shutdown()
	if _, err := os.Stat(gtPath); err != nil {
		t.Fatalf("no snapshot after shutdown: %v", err)
	}
	svc3, cl3 := newServer(t, Config{GTPath: gtPath})
	if got := gtEntries(t, svc3); !reflect.DeepEqual(got, want) {
		t.Fatalf("graceful restart restored %d entries, want %d", len(got), len(want))
	}
	stats, err := cl3.GroundTruth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != len(want) {
		t.Errorf("API reports %d entries after restart, want %d", stats.Entries, len(want))
	}
}

// TestJobRetention verifies the registry stays bounded: once the job
// count exceeds MaxJobsRetained, the oldest terminal jobs are evicted
// (404 afterwards) while newer ones remain queryable.
func TestJobRetention(t *testing.T) {
	_, cl := newServer(t, Config{Workers: 1, MaxJobsRetained: 2})
	ctx := context.Background()

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) > 2 {
		t.Fatalf("registry holds %d jobs, cap is 2", len(jobs))
	}
	if _, err := cl.Job(ctx, ids[0]); err == nil {
		t.Error("oldest job still queryable past the retention cap")
	}
	if _, err := cl.Job(ctx, ids[len(ids)-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
}

// TestSubmitAfterShutdown verifies the service refuses work once stopped.
func TestSubmitAfterShutdown(t *testing.T) {
	svc, cl := newServer(t, Config{})
	ctx := context.Background()
	svc.Shutdown()
	_, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	apiErr := new(api.Error)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
		t.Fatalf("submit after shutdown = %v, want HTTP 503", err)
	}
	// Shutdown is idempotent.
	svc.Shutdown()
}

// TestGroundTruthExportImport round-trips the database over HTTP: one
// daemon learns from a job, its export seeds a second daemon, and the
// second daemon serves hits (and reports the merged entries) without ever
// running a trial itself — the cross-deployment warm start of §5.4.
func TestGroundTruthExportImport(t *testing.T) {
	_, cl1 := newServer(t, Config{})
	ctx := context.Background()

	st, err := cl1.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl1.Wait(ctx, st.ID, 20*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("job: %v state %v", err, final.State)
	}
	dump, err := cl1.ExportGroundTruth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Entries) == 0 {
		t.Fatal("export returned no entries after a PipeTune job")
	}

	// A second, fresh daemon imports the knowledge.
	svc2, cl2 := newServer(t, Config{})
	res, err := cl2.ImportGroundTruth(ctx, dump)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imported != len(dump.Entries) {
		t.Fatalf("imported %d entries, want %d", res.Imported, len(dump.Entries))
	}
	if res.Stats.Entries != len(dump.Entries) {
		t.Fatalf("post-import stats report %d entries, want %d", res.Stats.Entries, len(dump.Entries))
	}
	if res.Stats.Rev == 0 {
		t.Fatalf("post-import stats report no revision: %+v", res.Stats)
	}
	// The imported knowledge must be live, not just counted.
	gtStats := svc2.GroundTruthStats()
	if gtStats.Rev == 0 {
		t.Fatal("import did not advance the data revision")
	}

	// Importing garbage rejects the batch atomically.
	if _, err := cl2.ImportGroundTruth(ctx, api.GroundTruthDump{
		Entries: []api.GroundTruthEntry{{Features: nil}},
	}); err == nil {
		t.Fatal("invalid import accepted")
	}
	if after := svc2.GroundTruthStats(); after.Entries != res.Stats.Entries {
		t.Fatalf("failed import mutated the database: %d -> %d entries", res.Stats.Entries, after.Entries)
	}
}

// TestGroundTruthImportRefusesAnotherWidth: an import holding an entry
// whose feature width differs from the batch's or the store's is refused
// with HTTP 400 naming the entry's index, and none of the batch lands.
// Accepted, it would turn every lookup routed to its shard into a miss.
func TestGroundTruthImportRefusesAnotherWidth(t *testing.T) {
	svc, cl := newServer(t, Config{})
	ctx := context.Background()
	entry := func(width int) api.GroundTruthEntry {
		f := make([]float64, width)
		for i := range f {
			f[i] = float64(i)
		}
		return api.GroundTruthEntry{Features: f, BestSys: pipetune.DefaultSysConfig(), Metric: 0.5}
	}
	refused := func(entries []api.GroundTruthEntry, index string, wantEntries int) {
		t.Helper()
		_, err := cl.ImportGroundTruth(ctx, api.GroundTruthDump{Entries: entries})
		apiErr := new(api.Error)
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, index) {
			t.Fatalf("import = %v, want HTTP 400 naming %s", err, index)
		}
		if n := svc.GroundTruthStats().Entries; n != wantEntries {
			t.Fatalf("refused import left %d entries, want %d", n, wantEntries)
		}
	}
	refused([]api.GroundTruthEntry{entry(58), entry(3)}, "entry 1", 0)
	if _, err := cl.ImportGroundTruth(ctx, api.GroundTruthDump{Entries: []api.GroundTruthEntry{entry(58), entry(58)}}); err != nil {
		t.Fatal(err)
	}
	refused([]api.GroundTruthEntry{entry(3)}, "entry 0", 2)
}

// TestGroundTruthStatsFieldsOverHTTP pins the stats surface: after a
// job, its entries, lookups and data revision travel the wire.
func TestGroundTruthStatsFieldsOverHTTP(t *testing.T) {
	_, cl := newServer(t, Config{})
	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("job: %v state %v", err, final.State)
	}
	gt, err := cl.GroundTruth(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gt.Entries == 0 || gt.Hits+gt.Misses == 0 {
		t.Fatalf("a finished job left no entries or lookups: %+v", gt)
	}
	if gt.Rev == 0 {
		t.Fatalf("rev = 0 after a job's adds: %+v", gt)
	}
}

// TestServicePersistsWALDuringJob pins that done ⇒ durable does not hang
// on any compaction cadence: a job adds far fewer entries than the
// record-count trigger, yet a job that reports done still survives the
// service being dropped without Shutdown — whatever mix of snapshot and
// fsynced log records the job left behind, reopening the path recovers
// every entry.
func TestServicePersistsWALDuringJob(t *testing.T) {
	gtPath := filepath.Join(t.TempDir(), "gt.json")
	svc, cl := newServer(t, Config{GTPath: gtPath})
	runJobToDone(t, cl)
	want := gtEntries(t, svc)
	if len(want) == 0 || len(want) >= compactEvery {
		t.Fatalf("job fed %d entries, want 1..%d: the record-count trigger must stay out of reach", len(want), compactEvery-1)
	}
	reopened, _ := newServer(t, Config{GTPath: gtPath})
	if got := gtEntries(t, reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery restored %d entries, want the job's %d", len(got), len(want))
	}
	if stats := reopened.GroundTruthStats(); stats.Entries != len(want) {
		t.Fatalf("stats report %d entries after recovery, want %d", stats.Entries, len(want))
	}
}
