// Package e2e holds multi-process smoke tests: they build the real
// binaries and drive them over real sockets. They are skipped unless
// PIPETUNE_E2E=1 (CI runs them in a dedicated job), so the regular unit
// sweep stays hermetic and fast.
package e2e

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipetune/api"
	"pipetune/client"
)

// buildBinaries compiles pipetuned and pipetune-worker into a temp dir.
func buildBinaries(t *testing.T) (daemon, worker string) {
	t.Helper()
	dir := t.TempDir()
	daemon = filepath.Join(dir, "pipetuned")
	worker = filepath.Join(dir, "pipetune-worker")
	for bin, pkg := range map[string]string{daemon: "./cmd/pipetuned", worker: "./cmd/pipetune-worker"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return daemon, worker
}

// startDaemon launches pipetuned on an ephemeral port and returns its
// bound address (parsed from the startup banner).
func startDaemon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-gt", ""}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("daemon: %s", line)
			if i := strings.Index(line, "serving the tuning API on "); i >= 0 {
				rest := line[i+len("serving the tuning API on "):]
				if j := strings.Index(rest, " "); j > 0 {
					select {
					case addrCh <- rest[:j]:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never printed its address")
		return ""
	}
}

// startWorker launches one pipetune-worker against the daemon; it beats
// at the cadence the daemon advertises.
func startWorker(t *testing.T, bin, serverURL, token string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-server", serverURL, "-token", token,
		"-capacity", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// resultDigest is the hex SHA-256 of a finished job's result JSON, the
// form testdata/results.json holds.
func resultDigest(t *testing.T, st api.JobStatus) string {
	t.Helper()
	if st.State != api.StateDone || st.Result == nil {
		t.Fatalf("job %s: state %v err %q result %v", st.ID, st.State, st.Error, st.Result != nil)
	}
	b, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRemoteE2E is the multi-process acceptance smoke: a real pipetuned
// daemon with -exec-backend=remote, two real pipetune-worker processes,
// one job through the HTTP API; one worker is SIGKILLed mid-job; the job
// must complete with the cold PipeTune result testdata/results.json
// holds for its key. The daemon runs at master seed 1 with the trial
// cache on and a ground truth that starts empty, as the library pass
// that recorded the file does.
func TestRemoteE2E(t *testing.T) {
	if os.Getenv("PIPETUNE_E2E") == "" {
		t.Skip("multi-process e2e: set PIPETUNE_E2E=1 to run")
	}
	data, err := os.ReadFile("../testdata/results.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows map[string]struct {
		Cold string `json:"cold"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	req := api.JobRequest{Workload: "lenet/mnist", Seed: 1}
	want := rows[fmt.Sprintf("%s|%d", req.Workload, req.Seed)].Cold

	daemonBin, workerBin := buildBinaries(t)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// The remote fleet: daemon + two workers, aggressive eviction so the
	// kill below recovers quickly.
	const token = "e2e-s3cret"
	remoteAddr := startDaemon(t, daemonBin,
		"-exec-backend", "remote", "-worker-token", token,
		"-worker-heartbeat", "100ms", "-worker-evict-after", "2")
	remoteURL := "http://" + remoteAddr
	remoteCl := client.New(remoteURL)
	w1 := startWorker(t, workerBin, remoteURL, token)
	startWorker(t, workerBin, remoteURL, token)

	// Both workers registered?
	deadline := time.Now().Add(30 * time.Second)
	for {
		fs, err := remoteCl.Fleet(ctx)
		if err == nil && len(fs.Workers) >= 2 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("two workers never registered (last: %v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	st, err := remoteCl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Kill worker 1 the moment it holds work: the daemon must evict it,
	// requeue its leases and let worker 2 finish the job.
	deadline = time.Now().Add(60 * time.Second)
	for {
		fs, err := remoteCl.Fleet(ctx)
		if err == nil && fs.LeasedTrials > 0 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no trial was ever leased")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := w1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	t.Log("killed worker 1 mid-job")

	remoteFinal, err := remoteCl.Wait(ctx, st.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(t, remoteFinal); got != want {
		t.Fatalf("remote-fleet result %s, testdata/results.json holds %s", got, want)
	}

	// The daemon's fleet surface must show the casualty and the work.
	fs, err := remoteCl.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	evicted := false
	for _, w := range fs.Workers {
		if w.State == "evicted" {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("killed worker not recorded as evicted: %+v", fs.Workers)
	}
	if fs.CompletedTrials == 0 {
		t.Fatal("fleet reports zero completed trials")
	}
	health, err := remoteCl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.ExecBackend != "remote" || health.Fleet == nil {
		t.Fatalf("healthz: backend %q fleet %v", health.ExecBackend, health.Fleet != nil)
	}
	fmt.Printf("e2e: remote result matches testdata/results.json, %d trials on the fleet, eviction recovered\n",
		fs.CompletedTrials)
}
