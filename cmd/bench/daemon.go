package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"pipetune"
	"pipetune/client"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/service"
	"pipetune/internal/trainer"
)

// The daemon under test is pipetuned's production wiring with the trial
// cache on: sharded ground truth behind the WAL, metrics on, two job
// workers, FIFO dispatch.
const (
	daemonWorkers  = 2
	trialCacheSize = 64 << 20
	agentCapacity  = 2
	masterSeed     = 1
	// agentHeartbeat is the worker's -heartbeat flag. Worker-side series
	// (epochs trained, kernel timings) reach the daemon's registry only on
	// heartbeats, so the end-of-run scrape waits for one; half a second
	// keeps that wait short while the daemon's eviction horizon stays at
	// its default 2 s × 3.
	agentHeartbeat = 500 * time.Millisecond
	// jobsRetained keeps every job of the longest permitted run (60 s) in
	// the registry, so the status-read set is never pruned mid-run.
	jobsRetained = 1 << 14
)

// daemon is one in-process pipetuned: the service behind a loopback
// listener, and for remote workloads one in-process worker agent on the
// binary stream.
type daemon struct {
	sys    *pipetune.System
	svc    *service.Service
	remote *exec.Remote // nil on the local backend

	srv       *http.Server
	serveDone chan error
	transport *http.Transport
	url       string
	cl        *client.Client
	wireBytes atomic.Int64 // every byte accepted connections carried

	stopAgent context.CancelFunc
	agentDone chan struct{}
}

// countingListener counts bytes on accepted connections — hijacked
// stream connections included, since net/http hands back the wrapper.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// boot starts a daemon with its state under dir. With a tracer, the
// seam decorators go in after service.New, exactly where an operator
// could put them; without one nothing is wrapped.
func boot(dir string, remote bool, t *tracer) (*daemon, error) {
	d := &daemon{}
	if remote {
		d.remote = exec.NewRemote(exec.RemoteConfig{Wire: exec.WireBinary})
	}
	sys, err := pipetune.New(
		pipetune.WithSeed(masterSeed),
		pipetune.WithGroundTruthStore(gt.NewSharded(gt.DefaultConfig(), masterSeed)),
		pipetune.WithTrialCache(trialCacheSize),
	)
	if err != nil {
		return nil, err
	}
	d.sys = sys
	d.svc, err = service.New(service.Config{
		System:          sys,
		Workers:         daemonWorkers,
		GTPath:          filepath.Join(dir, "groundtruth.json"),
		MaxJobsRetained: jobsRetained,
		Remote:          d.remote,
	})
	if err != nil {
		return nil, err
	}
	var backend exec.Backend = d.remote
	if !remote {
		// The System's default backend is an exec.Local over its private
		// trainer, which a decorator could not wrap. The local workloads
		// run on an exec.Local over an identically configured trainer
		// instead — traced or not, so both runs take the same path — whose
		// cache publishes into the daemon's registry like the System's.
		tr := trainer.NewRunner()
		tr.Cache = trainer.NewTrialCache(trialCacheSize)
		tr.InstrumentMetrics(d.svc.MetricsRegistry())
		backend = exec.NewLocal(tr)
	}
	handler := d.svc.Handler()
	d.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	var rt http.RoundTripper = d.transport
	if t != nil {
		backend = tracedBackend{Backend: backend, t: t}
		sys.SetGroundTruthStore(tracedStore{Store: sys.GroundTruth(), t: t})
		handler = t.middleware(handler)
		rt = spanTransport{base: d.transport}
	}
	sys.SetExecBackend(backend)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.svc.Shutdown()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: handler}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.srv.Serve(countingListener{ln, &d.wireBytes}) }()
	d.cl = client.New(d.url, client.WithHTTPClient(&http.Client{Transport: rt}))

	if remote {
		ctx, cancel := context.WithCancel(context.Background())
		d.stopAgent = cancel
		d.agentDone = make(chan struct{})
		agent := exec.NewAgent(exec.AgentConfig{
			Server:    d.url,
			Name:      "bench-agent",
			Wire:      exec.WireBinary,
			Capacity:  agentCapacity,
			Heartbeat: agentHeartbeat,
		})
		go func() {
			defer close(d.agentDone)
			_ = agent.Run(ctx) // returns ctx.Err() on the stop below
		}()
		if err := d.awaitWorker(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// awaitWorker blocks until the agent's stream session is registered.
func (d *daemon) awaitWorker() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		fs, err := d.cl.Fleet(context.Background())
		if err == nil && len(fs.Workers) > 0 {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("bench: worker agent did not register within 10s")
}

// close stops everything boot started and waits for it: the service
// (which drains the execution plane), the agent, the HTTP server.
func (d *daemon) close() {
	d.svc.Shutdown()
	if d.stopAgent != nil {
		d.stopAgent()
		<-d.agentDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close() // a stream connection outlived the drain; cut it
	}
	<-d.serveDone
	d.transport.CloseIdleConnections()
}

// counters is one reading of the daemon's public metrics page, reduced
// to the series the benchmark reports. Readings are subtracted to get
// the timed window's share.
type counters map[string]float64

// Registry family names read by scrape.
const (
	famLeaseGrants   = "pipetune_exec_lease_grants_total"
	famRequeues      = "pipetune_exec_requeues_total"
	famEvictions     = "pipetune_exec_evictions_total"
	famSSELagged     = "pipetune_sse_lagged_subscribers_total"
	famCacheHits     = "trainer_trial_cache_hits_total"
	famCacheMisses   = "trainer_trial_cache_misses_total"
	famCacheEvicts   = "trainer_trial_cache_evictions_total"
	famCacheSaved    = "trainer_trial_cache_epochs_saved_total"
	famLocalEpochs   = "nn_train_epoch_seconds"
	famWorkerEpochs  = "pipetune_worker_train_epoch_seconds"
	famWorkerRecords = "pipetune_worker_epochs_total"
	famWorkerTrials  = "pipetune_worker_trials_total"
)

// scrape reads GET /v1/metrics through the client and sums each family
// over its label sets: counters by value, sketches by observation count.
func (d *daemon) scrape(ctx context.Context) (counters, error) {
	snap, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	c := counters{}
	for _, fam := range snap.Families {
		for _, s := range fam.Samples {
			if fam.Kind == "summary" {
				c[fam.Name] += float64(s.Count)
			} else {
				c[fam.Name] += s.Value
			}
		}
	}
	return c, nil
}

// settledScrape scrapes once the worker's heartbeat has delivered the
// series of every trial run so far (remote only; local series are
// written in place). wantTrials is the trial count the daemon committed.
func (d *daemon) settledScrape(ctx context.Context, wantTrials float64) (counters, error) {
	deadline := time.Now().Add(5 * agentHeartbeat)
	for {
		c, err := d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		if d.remote == nil || c[famWorkerTrials] >= wantTrials || time.Now().After(deadline) {
			return c, nil
		}
		time.Sleep(agentHeartbeat / 10)
	}
}
