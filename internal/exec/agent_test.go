package exec

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startFleet boots a Remote behind a real HTTP server plus n in-process
// Agents speaking the real protocol — the full remote stack in one test
// binary.
func startFleet(t *testing.T, n int, cfg RemoteConfig) *Remote {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	r := NewRemote(cfg)
	srv := httptest.NewServer(r.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range n {
		agent := NewAgent(AgentConfig{
			Server:   srv.URL,
			Token:    cfg.Token,
			Name:     "test-agent",
			Capacity: 2,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = agent.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		r.Close()
	})
	return r
}

// TestAgentTokenAuth pins the agent's side of the shared-token gate: a
// rejected token is terminal (Run returns ErrBadToken instead of
// retrying forever), the right one is admitted.
func TestAgentTokenAuth(t *testing.T) {
	r := NewRemote(RemoteConfig{Token: "s3cret", HeartbeatInterval: 50 * time.Millisecond})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	bad := NewAgent(AgentConfig{Server: srv.URL, Token: "wrong"})
	if err := bad.Run(context.Background()); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong token: %v, want ErrBadToken", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	good := NewAgent(AgentConfig{Server: srv.URL, Token: "s3cret"})
	done := make(chan error, 1)
	go func() { done <- good.Run(ctx) }()
	waitFor(t, r, "the correctly-tokened agent to register", func() bool { return len(r.workers) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("agent exit: %v, want context.Canceled", err)
	}
}

// TestAgentStopsOnVersionRefusal: a daemon that answers the upgrade with
// 426 speaks another protocol version, which no reconnect can fix, so
// Run returns after one attempt with an error naming both tokens rather
// than retrying forever.
func TestAgentStopsOnVersionRefusal(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		attempts.Add(1)
		w.Header().Set("Upgrade", "pipetune-stream/8")
		w.WriteHeader(http.StatusUpgradeRequired)
	}))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := NewAgent(AgentConfig{Server: srv.URL}).Run(ctx)
	if !errors.Is(err, errStreamVersion) || !strings.Contains(err.Error(), "pipetune-stream/8") || !strings.Contains(err.Error(), streamUpgradeProto) {
		t.Fatalf("Run against a 426: %v, want the version refusal naming both tokens", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d upgrade attempts, want 1", n)
	}
}

// partitionListener hands out connections whose inbound side the test
// can freeze: bytes that arrive on a frozen connection are read and
// dropped — a worker that is connected but partitioned. The underlying
// Read keeps running, so the daemon's read deadline still fires.
// Outbound (daemon → worker) traffic is untouched.
type partitionListener struct {
	net.Listener
	last atomic.Pointer[partitionConn] // the most recently accepted
}

func (l *partitionListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pc := &partitionConn{Conn: c}
	l.last.Store(pc)
	return pc, nil
}

type partitionConn struct {
	net.Conn
	frozen atomic.Bool
}

func (c *partitionConn) Read(p []byte) (int, error) {
	for {
		n, err := c.Conn.Read(p)
		if err != nil || !c.frozen.Load() {
			return n, err
		}
	}
}

// TestAgentSurvivesEvictionAndReRegisters is the partition story end to
// end: a connected worker holding a lease stops being heard, the
// daemon's read deadline ends its session and evicts it, eviction severs
// its stream, the agent reconnects under a new worker id, and the
// requeued lease completes on its second attempt with the bits a direct
// run produces.
func TestAgentSurvivesEvictionAndReRegisters(t *testing.T) {
	r := NewRemote(RemoteConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		MissedHeartbeats:  3,
		Logf:              t.Logf,
	})
	t.Cleanup(r.Close)
	srv := httptest.NewUnstartedServer(r.Handler())
	ln := &partitionListener{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := NewAgent(AgentConfig{Server: srv.URL, Capacity: 1})
	go func() { _ = agent.Run(ctx) }()
	waitFor(t, r, "registration", func() bool { return len(r.workers) == 1 })

	// Partition the worker's connection, then submit: the grant reaches
	// the worker, but nothing it sends back — heartbeats, the commit —
	// reaches the daemon, so the lease cannot complete on this
	// registration. Its reconnect is a new connection, not partitioned.
	ln.last.Load().frozen.Store(true)
	tr := smallTrainer()
	trials := realTrials(tr, 1)
	ran := runAsync(context.Background(), r, trials)
	waitFor(t, r, "the silent worker's eviction to requeue its lease", func() bool {
		return r.met.requeues.Value() == 1
	})
	if fs := r.Fleet(); fs.Workers[0].State != "evicted" {
		t.Fatalf("after the read deadline: %+v", fs)
	}

	out := <-ran
	if out.errs[0] != nil {
		t.Fatalf("trial after re-registration: %v", out.errs[0])
	}
	want, err := smallTrainer().Run(trials[0].Workload, trials[0].Hyper, trials[0].Sys, trials[0].Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.results[0], want) {
		t.Fatal("requeued lease's result diverges from a direct run")
	}
	// Attempt 1 never committed and attempt 2 did, under a new id.
	fs := r.Fleet()
	if len(fs.Workers) != 2 || fs.Workers[0].TrialsDone != 0 ||
		fs.Workers[1].State != "active" || fs.Workers[1].TrialsDone != 1 || fs.RequeuedTrials != 1 {
		t.Fatalf("fleet after recovery: %+v", fs)
	}
}
