package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pipetune/api"
	"pipetune/client"
	"pipetune/internal/exec"
)

// newRemoteServer wires a Service over the remote execution backend and
// returns the service, its client and the Remote for fleet
// introspection. The eviction horizon (heartbeat × missed) must
// comfortably exceed one epoch's compute time on a loaded single-CPU
// box under -race, or healthy workers get falsely evicted and the job
// livelocks on requeue churn — exactly the operator guidance the
// production defaults (2s × 3) encode. Tests that need eviction pass a
// tighter missed count and shrink the trial instead.
func newRemoteServer(t *testing.T, cfg Config, missedHeartbeats int) (*Service, *client.Client, *exec.Remote) {
	t.Helper()
	remote := exec.NewRemote(exec.RemoteConfig{
		HeartbeatInterval: 150 * time.Millisecond,
		MissedHeartbeats:  missedHeartbeats,
		Logf:              t.Logf,
	})
	cfg.Remote = remote
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	svc, cl := newServer(t, cfg)
	return svc, cl, remote
}

// startAgent runs an in-process worker agent against the service's
// base URL; the returned cancel kills it (the process-crash stand-in).
func startAgent(t *testing.T, baseURL string, capacity int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	agent := exec.NewAgent(exec.AgentConfig{
		Server:   baseURL,
		Name:     "test-agent",
		Capacity: capacity,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = agent.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return cancel
}

// resultJSON canonicalises a job result for byte comparison.
func resultJSON(t *testing.T, st api.JobStatus) string {
	t.Helper()
	if st.Result == nil {
		t.Fatalf("job %s has no result (state %v, err %q)", st.ID, st.State, st.Error)
	}
	b, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runOne submits req and waits for the terminal status.
func runOne(t *testing.T, cl *client.Client, req api.JobRequest) api.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// TestRemoteJobSurvivesWorkerDeath is the end-to-end crash regression:
// one of two workers dies mid-job, the severed stream evicts it and
// requeues its leases, and the job still completes — with the exact
// result a healthy run produces.
func TestRemoteJobSurvivesWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-death recovery runs full trial compute; CI races it in the execution-plane step")
	}
	// Single-epoch trials keep each attempt well inside the ~1s eviction
	// horizon even under -race on one CPU, so only the killed worker is
	// ever evicted — not the busy survivor.
	req := smallReq("lenet/mnist")
	req.Epochs = 1

	_, localCl := newServer(t, Config{})
	want := resultJSON(t, runOne(t, localCl, req))

	_, remoteCl, remote := newRemoteServer(t, Config{}, 6)
	killFirst := startAgent(t, remoteCl.BaseURL, 1)

	ctx := context.Background()
	st, err := remoteCl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first worker holds at least one lease, then kill it.
	deadline := time.Now().Add(10 * time.Second)
	for remote.Fleet().LeasedTrials == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("first worker never leased a trial")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killFirst()
	startAgent(t, remoteCl.BaseURL, 2)

	final, err := remoteCl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("job after worker death ended %v (%s), want done", final.State, final.Error)
	}
	if resultJSON(t, final) != want {
		t.Fatal("post-crash JobResult diverges from a healthy run")
	}
	fs := remote.Fleet()
	evicted := 0
	for _, w := range fs.Workers {
		if w.State == "evicted" {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatalf("no worker recorded as evicted: %+v", fs.Workers)
	}
}

// TestRetiredWorkerRoutes pins the single wire at the daemon's mux: the
// five long-poll worker routes of the retired JSON protocol are gone,
// and the stream upgrade still answers 401 without the token.
func TestRetiredWorkerRoutes(t *testing.T) {
	remote := exec.NewRemote(exec.RemoteConfig{Token: "s3cret"})
	_, cl := newServer(t, Config{Remote: remote})
	for path, want := range map[string]int{
		"/v1/workers":                                    http.StatusNotFound,
		"/v1/workers/w-000001/lease":                     http.StatusNotFound,
		"/v1/workers/w-000001/heartbeat":                 http.StatusNotFound,
		"/v1/workers/w-000001/leases/ls-000001/epoch":    http.StatusNotFound,
		"/v1/workers/w-000001/leases/ls-000001/complete": http.StatusNotFound,
		"/v1/stream": http.StatusUnauthorized,
	} {
		resp, err := http.Post(cl.BaseURL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestShutdownFailsUndrainedRemoteJobs pins the graceful-shutdown
// satellite: a job whose trials can never complete (no workers) must
// come out of Shutdown as failed-with-reason, not silently lost or
// forever running.
func TestShutdownFailsUndrainedRemoteJobs(t *testing.T) {
	svc, cl, remote := newRemoteServer(t, Config{Workers: 1, DrainTimeout: 300 * time.Millisecond}, 20)

	ctx := context.Background()
	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job's first batch is pending leases that no worker
	// will ever take. StateRunning is not enough: it is set before the
	// batch reaches the Remote, and a Shutdown in that gap cancels the
	// job instead of failing it on the drain.
	deadline := time.Now().Add(5 * time.Second)
	for remote.Fleet().PendingTrials == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("the job's first batch never reached the Remote")
		}
		time.Sleep(2 * time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		svc.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not complete — drain deadline not honoured")
	}

	final, err := svc.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateFailed {
		t.Fatalf("undrained job ended %v, want failed", final.State)
	}
	if !strings.Contains(final.Error, "draining") {
		t.Fatalf("undrained job error %q does not name the drain", final.Error)
	}
}

// TestHealthReportsFleet pins the fleet surfaces: /healthz carries the
// execution backend and worker rows, /v1/fleet serves the same snapshot,
// and a local-backend daemon answers 404 on /v1/fleet.
func TestHealthReportsFleet(t *testing.T) {
	_, remoteCl, _ := newRemoteServer(t, Config{}, 20)
	startAgent(t, remoteCl.BaseURL, 1)

	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := remoteCl.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.ExecBackend != "remote" {
			t.Fatalf("health execBackend = %q, want remote", h.ExecBackend)
		}
		if h.Fleet != nil && len(h.Fleet.Workers) == 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("fleet never showed the worker: %+v", h.Fleet)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fs, err := remoteCl.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Workers) != 1 {
		t.Fatalf("fleet endpoint = %+v", fs)
	}

	_, localCl := newServer(t, Config{})
	h, err := localCl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExecBackend != "local" || h.Fleet != nil {
		t.Fatalf("local health = backend %q fleet %v", h.ExecBackend, h.Fleet)
	}
	if _, err := localCl.Fleet(ctx); err == nil {
		t.Fatal("local daemon served /v1/fleet")
	}
}

// TestMetricsAlwaysServed: the observability plane has no off switch. A
// zero-value Config mounts /metrics and /v1/metrics over the registry
// the service publishes into, and with a Remote that registry is the
// execution plane's, so one scrape sees the service and the fleet.
func TestMetricsAlwaysServed(t *testing.T) {
	families := func(t *testing.T, svc *Service, cl *client.Client) map[string]bool {
		t.Helper()
		rec := do(t, svc.Handler(), http.MethodGet, "/metrics")
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "# TYPE pipetune_jobs_rejected_total counter") {
			t.Fatalf("GET /metrics: HTTP %d body %q", rec.Code, rec.Body)
		}
		snap, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, f := range snap.Families {
			names[f.Name] = true
		}
		return names
	}

	svc, cl := newServer(t, Config{})
	if got := families(t, svc, cl); !got["pipetune_jobs_rejected_total"] || !got["nn_train_epoch_seconds"] {
		t.Fatalf("GET /v1/metrics lacks the service and trainer families: %v", got)
	}

	svc, cl, remote := newRemoteServer(t, Config{}, 3)
	if svc.MetricsRegistry() != remote.MetricsRegistry() {
		t.Fatal("the service publishes into a registry of its own beside the Remote's")
	}
	if got := families(t, svc, cl); !got["pipetune_jobs_rejected_total"] || !got["pipetune_exec_lease_grants_total"] {
		t.Fatalf("GET /v1/metrics lacks the service or execution-plane families: %v", got)
	}
}
