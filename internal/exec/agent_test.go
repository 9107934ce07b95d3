package exec

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startFleet boots a Remote behind a real HTTP server plus n in-process
// Agents speaking the real protocol — the full remote stack in one test
// binary.
func startFleet(t *testing.T, n int, cfg RemoteConfig) (*Remote, context.CancelFunc) {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	r := NewRemote(cfg)
	srv := httptest.NewServer(r.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
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
	return r, cancel
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if !time.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
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
	waitFor(t, "the correctly-tokened agent to register", func() bool { return len(r.Fleet().Workers) == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("agent exit: %v, want context.Canceled", err)
	}
}

// partitionListener hands out connections whose inbound side the test
// can freeze: bytes that arrive while frozen are held, not delivered,
// until the connection is closed — a worker that is connected but
// partitioned. Outbound (daemon → worker) traffic is untouched.
type partitionListener struct {
	net.Listener
	frozen atomic.Bool
}

func (l *partitionListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &partitionConn{Conn: c, l: l, closed: make(chan struct{})}, nil
}

type partitionConn struct {
	net.Conn
	l         *partitionListener
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *partitionConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.frozen.Load() {
		<-c.closed
	}
	return n, err
}

func (c *partitionConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestAgentSurvivesEvictionAndReRegisters is the partition story end to
// end: the reaper evicts a connected-but-silent worker holding a lease
// (on the injected clock), eviction severs its stream, the agent
// reconnects under a new worker id, and the requeued lease completes on
// its second attempt with the bits a direct run produces.
func TestAgentSurvivesEvictionAndReRegisters(t *testing.T) {
	clock := newTestClock()
	r := NewRemote(RemoteConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		MissedHeartbeats:  2,
		Logf:              t.Logf,
		now:               clock.Now,
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
	waitFor(t, "registration", func() bool { return len(r.Fleet().Workers) == 1 })

	// Partition, then submit: the grant reaches the worker, but nothing
	// it sends back — heartbeats, the commit — reaches the daemon, so
	// the lease cannot complete on this registration.
	ln.frozen.Store(true)
	tr := smallTrainer()
	trials := realTrials(tr, 1)
	ran := runAsync(context.Background(), r, trials)
	waitFor(t, "the partitioned worker to hold the lease", func() bool { return r.Fleet().LeasedTrials == 1 })

	clock.Advance(time.Second)
	r.evictStale()
	if fs := r.Fleet(); fs.RequeuedTrials != 1 || fs.PendingTrials != 1 || fs.Workers[0].State != "evicted" {
		t.Fatalf("after the reaper scan: %+v", fs)
	}
	ln.frozen.Store(false) // heal: the agent's reconnect gets through

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
