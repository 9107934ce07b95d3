package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pipetune"
	"pipetune/api"
	"pipetune/client"
	"pipetune/internal/gt"
)

// waitAll waits every job to a terminal state and returns the final
// statuses in the given order.
func waitAll(t *testing.T, cl *client.Client, ids []string) []api.JobStatus {
	t.Helper()
	out := make([]api.JobStatus, len(ids))
	for i, id := range ids {
		st, err := cl.Wait(context.Background(), id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		out[i] = st
	}
	return out
}

// holder takes over a service's start seam: every job dispatched while it
// holds stays running with its body unstarted, so a test forms a backlog
// behind it deterministically.
type holder struct {
	svc  *Service
	run  func(ctx context.Context, jb *job) // the seam it replaced
	held []heldJob
}

type heldJob struct {
	ctx context.Context
	jb  *job
}

// hold installs a holder on svc; call it before the first Submit.
func hold(svc *Service) *holder {
	h := &holder{svc: svc}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	h.run = svc.start
	svc.start = func(ctx context.Context, jb *job) { h.held = append(h.held, heldJob{ctx, jb}) }
	return h
}

// release restores the seam and starts every held job's real body.
func (h *holder) release() {
	s := h.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start = h.run
	for _, hj := range h.held {
		s.start(hj.ctx, hj.jb)
	}
	h.held = nil
}

// TestFIFOParitySchedule is the dispatcher's behaviour-preservation
// guarantee: under the default configuration (job policy fifo, no
// tenants, no priorities) the new dispatcher reproduces the legacy
// single-channel schedule exactly — IDs allocate sequentially and jobs
// start in submission order, bit-identically to what `chan *job` did.
func TestFIFOParitySchedule(t *testing.T) {
	_, cl := newServer(t, Config{Workers: 1})
	ctx := context.Background()

	const n = 6
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("job-%06d", i+1); st.ID != want {
			t.Fatalf("submission %d got ID %s, want %s", i, st.ID, want)
		}
		ids[i] = st.ID
	}
	finals := waitAll(t, cl, ids)
	for i, st := range finals {
		if st.State != api.StateDone {
			t.Fatalf("job %s ended %v", st.ID, st.State)
		}
		if st.Started == nil {
			t.Fatalf("job %s has no start time", st.ID)
		}
		if i > 0 && finals[i].Started.Before(*finals[i-1].Started) {
			t.Fatalf("job %s started before its predecessor %s: FIFO parity broken",
				finals[i].ID, finals[i-1].ID)
		}
	}
}

// TestWeightedFairDispatch drives the live service under the fair policy:
// one worker, a saturated backlog from two tenants with weights 2:1, and
// the dispatch order (observed via start times) must give the weight-2
// tenant ~2x the jobs in any aligned window.
func TestWeightedFairDispatch(t *testing.T) {
	svc, cl := newServer(t, Config{
		Workers:       1,
		JobPolicy:     pipetune.JobPolicyFair,
		TenantWeights: map[string]int{"gold": 2, "free": 1},
		Logf:          t.Logf,
	})
	ctx := context.Background()

	// Hold the first job running while the backlog forms behind it: every
	// later scheduling decision is then made over a complete, saturated
	// queue — deterministic DRR, no submission/completion races.
	held := hold(svc)
	var ids []string
	for i := 0; i < 8; i++ {
		for _, tenant := range []string{"gold", "free"} {
			req := smallReq("lenet/mnist")
			req.Epochs = 1
			req.Tenant = tenant
			st, err := cl.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
	}
	held.release()
	backlog := waitAll(t, cl, ids)
	sort.Slice(backlog, func(i, j int) bool { return backlog[i].Started.Before(*backlog[j].Started) })
	gold := 0
	for _, st := range backlog[:9] {
		if st.Tenant == "gold" {
			gold++
		}
	}
	// DRR with equal costs: exactly 6 of the first 9 dispatches (one
	// quantum of slack either way).
	if gold < 5 || gold > 7 {
		order := make([]string, 9)
		for i, st := range backlog[:9] {
			order[i] = st.Tenant
		}
		t.Fatalf("gold dispatched %d of first 9 (want ~6); order %v", gold, order)
	}

	// The health surface reports the policy and per-tenant stats.
	h := svc.Health()
	if h.JobPolicy != pipetune.JobPolicyFair {
		t.Fatalf("health jobPolicy = %q", h.JobPolicy)
	}
	byTenant := map[string]api.TenantHealth{}
	for _, th := range h.Tenants {
		byTenant[th.Tenant] = th
	}
	g, ok := byTenant["gold"]
	if !ok {
		t.Fatalf("health missing gold tenant: %+v", h.Tenants)
	}
	if g.Weight != 2 || g.Finished != 8 {
		t.Fatalf("gold health = %+v, want weight 2, finished 8", g)
	}
	f := byTenant["free"]
	if f.MeanWaitSeconds <= 0 || f.MaxWaitSeconds < f.MeanWaitSeconds {
		t.Fatalf("free wait stats degenerate: %+v", f)
	}
}

// TestQueueFullDoesNotBurnIDs is the regression test for the job-ID burn:
// a queue-full rejection must not advance the job-%06d sequence, so the
// next accepted job gets the very next ID.
func TestQueueFullDoesNotBurnIDs(t *testing.T) {
	svc, cl := newServer(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	held := hold(svc) // j1 holds the one worker slot, so j2 occupies the one queue slot
	j1, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != "job-000001" {
		t.Fatalf("first job ID %s", j1.ID)
	}
	// Submit answers with the admitted status: j1 was the queued head when
	// it was accepted, and the status surface must say so and carry the
	// cost model's estimate.
	if j1.State != api.StateQueued || j1.QueuePosition == nil || *j1.QueuePosition != 0 {
		t.Fatalf("queued j1 status = %+v, want queuePosition 0", j1)
	}
	if j1.PredictedDuration <= 0 {
		t.Fatalf("queued j1 has no predicted duration: %+v", j1)
	}
	if j1.Tenant != DefaultTenant {
		t.Fatalf("tenant-less submission resolved to %q", j1.Tenant)
	}
	j2, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-000002" || j2.State != api.StateQueued {
		t.Fatalf("second job %s %v, want job-000002 queued", j2.ID, j2.State)
	}

	// Queue full: these rejections must leave no gap in the sequence.
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, smallReq("lenet/mnist")); err == nil {
			t.Fatal("submit into a full queue succeeded")
		} else if apiErr := new(api.Error); !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
			t.Fatalf("queue-full error = %v, want HTTP 503", err)
		}
	}
	// Free the queue slot and submit again: the ID continues from 000002.
	if _, err := cl.Cancel(ctx, j2.ID); err != nil {
		t.Fatal(err)
	}
	j3, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "job-000003" {
		t.Fatalf("post-rejection job ID %s, want job-000003 (rejections burned IDs)", j3.ID)
	}
	held.release()
	for _, final := range waitAll(t, cl, []string{j1.ID, j3.ID}) {
		if final.State != api.StateDone {
			t.Fatalf("%s ended %v", final.ID, final.State)
		}
	}
}

// TestResultNotAliased is the regression test for the registry handing
// out its internal result pointer: mutating a returned result must not
// corrupt what later callers read.
func TestResultNotAliased(t *testing.T) {
	svc, cl := newServer(t, Config{})
	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("job: %v state %v", err, final.State)
	}

	got, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || got.Result.Best == nil || len(got.Result.Trials) == 0 {
		t.Fatal("done job missing result")
	}
	wantScore := got.Result.Best.Score
	wantTrial0 := got.Result.Trials[0].Score

	// Vandalise everything reachable from the returned status.
	got.Result.Best.Score = -12345
	got.Result.Trials[0].Score = -99
	for k := range got.Result.Best.Assignment {
		got.Result.Best.Assignment[k] = -1
	}
	if len(got.Result.Best.Result.Epochs) > 0 {
		got.Result.Best.Result.Epochs[0].Accuracy = -1
	}

	again, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.Best.Score != wantScore {
		t.Errorf("registry result corrupted: best score %v, want %v", again.Result.Best.Score, wantScore)
	}
	if again.Result.Trials[0].Score != wantTrial0 {
		t.Errorf("registry trial corrupted: %v, want %v", again.Result.Trials[0].Score, wantTrial0)
	}
	for k, v := range again.Result.Best.Assignment {
		if v == -1 {
			t.Errorf("registry assignment corrupted at %s", k)
		}
	}
	if len(again.Result.Best.Result.Epochs) > 0 && again.Result.Best.Result.Epochs[0].Accuracy == -1 {
		t.Error("registry epoch stats corrupted")
	}
}

// TestLaggedSubscriberObservesDrop is the regression test for the silent
// slow-subscriber drop: a stalled subscriber must learn it was dropped
// (not believe the job ended), and a replay must deliver the true
// terminal state.
func TestLaggedSubscriberObservesDrop(t *testing.T) {
	svc, cl := newServer(t, Config{Workers: 1, SubscriberBuffer: 1})
	ctx := context.Background()

	// Hold the watched job at dispatch so the subscription attaches before
	// any of its events exist.
	held := hold(svc)
	watched, err := cl.Submit(ctx, smallReq("cnn/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	su, err := svc.Subscribe(watched.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(su.Replay) != 0 {
		t.Fatalf("held job already has %d events", len(su.Replay))
	}
	// Stall: never read su.Events while the job runs to completion. Every
	// event past the 1-slot buffer overflows and evicts the subscriber.
	held.release()
	final := waitAll(t, cl, []string{watched.ID})[0]
	if final.State != api.StateDone {
		t.Fatalf("watched job ended %v", final.State)
	}
	if final.TrialsDone < 2 {
		t.Fatalf("watched job ran %d trials; need >= 2 to overflow the buffer", final.TrialsDone)
	}

	var delivered []api.Event
	for ev := range su.Events {
		delivered = append(delivered, ev)
	}
	if len(delivered) > 1 {
		t.Fatalf("stalled subscriber drained %d events from a 1-slot buffer", len(delivered))
	}
	if !su.Lagged() {
		t.Fatal("dropped subscriber not marked lagged: the drop is indistinguishable from job completion")
	}
	// Replay after the drop: the fresh subscription delivers the complete
	// history ending in the true terminal state.
	su2, err := svc.Subscribe(watched.ID)
	if err != nil {
		t.Fatal(err)
	}
	if su2.Lagged() {
		t.Fatal("fresh subscription born lagged")
	}
	if len(su2.Replay) == 0 {
		t.Fatal("replay empty after job completion")
	}
	last := su2.Replay[len(su2.Replay)-1]
	if last.Type != api.EventState || last.State != api.StateDone {
		t.Fatalf("replay ends with %+v, want done state event", last)
	}
	if _, open := <-su2.Events; open {
		t.Fatal("terminal job's event channel not closed")
	}

	// Over HTTP, the re-subscribe path is client.Stream on the finished
	// job: full replay, terminal state, no truncation error.
	sawTerminal := false
	if err := cl.Stream(ctx, watched.ID, func(ev api.Event) error {
		if ev.Type == api.EventState && ev.State.Terminal() {
			sawTerminal = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !sawTerminal {
		t.Fatal("replayed stream carried no terminal state")
	}
}

// failingStore wraps a real store but hands out an entry JSON cannot
// encode (a NaN feature), so every export fails mid-write.
type failingStore struct {
	gt.Store
}

func (f *failingStore) Entries() []gt.Entry {
	return []gt.Entry{{Features: []float64{math.NaN()}, BestSys: pipetune.DefaultSysConfig()}}
}

// TestExportFailureIsNotA200 is the regression test for the truncated-200
// export: a store failure mid-export must surface as HTTP 500, never as a
// 200 whose truncated body the importer cannot tell from a complete dump.
func TestExportFailureIsNotA200(t *testing.T) {
	failing := &failingStore{Store: gt.NewMemory(gt.DefaultConfig())}
	sys := newSystem(t, pipetune.WithGroundTruthStore(failing))
	_, cl := newServer(t, Config{System: sys})

	_, err := cl.ExportGroundTruth(context.Background())
	apiErr := new(api.Error)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("export against a failing store = %v, want HTTP 500", err)
	}
}

// TestExportCarriesContentLength verifies a healthy export declares its
// exact length (so torn transfers are detectable) and that a truncated
// import body is rejected with HTTP 400.
func TestExportCarriesContentLength(t *testing.T) {
	svc, cl := newServer(t, Config{})
	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("job: %v state %v", err, final.State)
	}
	_ = svc

	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/groundtruth/export")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	if len(body) == 0 {
		t.Fatal("empty export after a job")
	}

	// A truncated dump must be rejected atomically, not half-applied.
	trunc := strings.TrimRight(string(body[:len(body)/2]), "\n")
	resp2, err := http.Post(srv.URL+"/v1/groundtruth/import", "application/json", strings.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated import status %d, want 400", resp2.StatusCode)
	}
}

// TestSJFDispatchOrder verifies the sjf job policy dispatches the
// cheapest predicted job first on the live service: an expensive
// (6-epoch) job submitted *before* a cheap (1-epoch) one is overtaken.
func TestSJFDispatchOrder(t *testing.T) {
	svc, cl := newServer(t, Config{Workers: 1, JobPolicy: pipetune.JobPolicySJF})
	ctx := context.Background()

	// A held first job keeps the one slot busy while the two queue.
	held := hold(svc)
	if _, err := cl.Submit(ctx, smallReq("lenet/mnist")); err != nil {
		t.Fatal(err)
	}
	costlyReq := smallReq("lenet/mnist")
	costlyReq.Epochs = 6
	costly, err := cl.Submit(ctx, costlyReq)
	if err != nil {
		t.Fatal(err)
	}
	cheapReq := smallReq("lenet/mnist")
	cheapReq.Epochs = 1
	cheap, err := cl.Submit(ctx, cheapReq)
	if err != nil {
		t.Fatal(err)
	}
	if costly.PredictedDuration <= cheap.PredictedDuration {
		t.Fatalf("cost model inverted: 6-epoch %v <= 1-epoch %v",
			costly.PredictedDuration, cheap.PredictedDuration)
	}
	// The cheap job, submitted second, must rank ahead of the expensive
	// one in the nominal dispatch order, and start first once the slot
	// frees.
	c1, err := cl.Job(ctx, costly.ID)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Job(ctx, cheap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c1.QueuePosition == nil || c2.QueuePosition == nil || *c2.QueuePosition != 0 || *c1.QueuePosition != 1 {
		t.Fatalf("sjf queue positions: costly %v, cheap %v (want 1, 0)", c1.QueuePosition, c2.QueuePosition)
	}
	held.release()
	finals := waitAll(t, cl, []string{costly.ID, cheap.ID})
	if finals[1].Started.After(*finals[0].Started) {
		t.Fatalf("sjf dispatched the expensive job first (cheap started %v, costly %v)",
			finals[1].Started, finals[0].Started)
	}
}
