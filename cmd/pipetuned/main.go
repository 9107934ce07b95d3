// Command pipetuned is the multi-tenant PipeTune tuning daemon: an
// HTTP/JSON job API (package api documents the surface) in front of one
// shared pipetune.System, running up to -workers jobs at once, and a
// single ground-truth similarity database shared across every job and
// persisted atomically to disk.
//
// Usage:
//
//	pipetuned [-addr :8080] [-workers 2] [-seed 1] [-gt groundtruth.json]
//	          [-queue 64] [-bootstrap] [-drain 10s]
//	          [-job-policy fifo] [-tenant-weight name=w ...]
//	          [-exec-backend local] [-worker-token secret]
//	          [-worker-heartbeat 2s] [-worker-evict-after 3]
//	          [-pprof-addr localhost:6060]
//
// Trial execution is a pluggable plane: the default -exec-backend=local
// computes every trial body on an in-process pool, while
// -exec-backend=remote fans trial bodies out to a fleet of
// pipetune-worker processes that each hold one persistent framed stream
// to this daemon (POST /v1/stream, upgraded): lease grants arrive in
// batches, per-epoch observations stream back (so PipeTune's pipelined
// system tuning still fires mid-trial), results come back as computed, and
// the worker heartbeats. A worker silent for -worker-evict-after heartbeats is
// evicted and its leases requeued; results commit at most once. Scale
// out by simply starting more workers:
//
//	pipetuned -exec-backend=remote -worker-token s3cret
//	pipetune-worker -server http://localhost:8080 -token s3cret -capacity 4
//	pipetune-worker -server http://localhost:8080 -token s3cret -capacity 4
//
// Trials run through a 64 MiB trial prefix cache: trials that share a
// training prefix replay cached SGD bit-identically, and remote workers
// keep local caches of the same budget.
//
// -pprof-addr serves net/http/pprof on a separate listener (off by
// default) for profiling the live daemon without exposing the profiling
// surface on the public API port.
//
// Every layer (admission queue, job dispatch, ground-truth store and
// WAL, execution plane, worker fleet) publishes into one shared metrics
// registry, exposed as Prometheus text at GET /metrics and as typed JSON
// at GET /v1/metrics; /healthz reads the same registry. Remote workers
// ship their local series (trial compute time, epochs) as the heartbeat
// they already send.
//
// Job dispatch across tenants is policy-driven: the default -job-policy
// fifo reproduces the classic submission-order schedule exactly;
// -job-policy fair shares the job slots by weighted deficit round robin
// over per-tenant queues (weights from repeatable -tenant-weight flags,
// e.g. -tenant-weight research=2 -tenant-weight interns=1). Submissions
// bill to the tenant named in the request body ("default" when absent).
//
// Submit a job and watch it:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"workload":"lenet/mnist"}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -N localhost:8080/v1/jobs/job-000001/events
//
// Ground-truth persistence is write-ahead-logged: every trial's entry is
// appended and fsynced (to <gt>.wal) the moment it lands — so a job that
// reports done has its contributions durable — and the log is compacted
// into the snapshot after jobs, every 256 records, after an import and
// at shutdown. A crash loses at most the un-synced tail of one append; a
// legacy (pre-WAL) groundtruth.json loads unchanged.
//
// On SIGINT/SIGTERM the HTTP server drains, running jobs are cancelled at
// their next trial boundary, and the ground truth takes a final snapshot —
// knowledge accumulated by every tenant survives the restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"pipetune"
	"pipetune/internal/exec"
	"pipetune/internal/httpserve"
	"pipetune/internal/service"
	"pipetune/internal/trainer"
)

// weightFlags collects repeatable -tenant-weight name=w flags.
type weightFlags map[string]int

func (w weightFlags) String() string {
	parts := make([]string, 0, len(w))
	for name, weight := range w {
		parts = append(parts, fmt.Sprintf("%s=%d", name, weight))
	}
	return strings.Join(parts, ",")
}

func (w weightFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight, got %q", s)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return fmt.Errorf("weight for %q must be a positive integer, got %q", name, val)
	}
	w[name] = n
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipetuned:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addrFlag      = flag.String("addr", ":8080", "listen address")
		workersFlag   = flag.Int("workers", 2, "concurrently running jobs")
		queueFlag     = flag.Int("queue", 64, "max queued jobs")
		seedFlag      = flag.Uint64("seed", 1, "master seed for jobs that do not set one")
		gtFlag        = flag.String("gt", "groundtruth.json", "ground-truth snapshot path (empty disables persistence; the WAL lives alongside at <path>.wal)")
		jobPolicyFlag = flag.String("job-policy", pipetune.JobPolicyFIFO, "job dispatch policy across tenants: fifo or fair")
		bootstrapFlag = flag.Bool("bootstrap", false, "warm-start the ground truth by profiling the Table 3 catalog")
		drainFlag     = flag.Duration("drain", httpserve.DefaultShutdownTimeout, "graceful-shutdown drain timeout (HTTP and in-flight remote trials)")
		execFlag      = flag.String("exec-backend", "local", "trial execution backend: local (in-process pool) or remote (pipetune-worker fleet)")
		tokenFlag     = flag.String("worker-token", "", "shared bearer token pipetune-worker processes must present (empty = open)")
		beatFlag      = flag.Duration("worker-heartbeat", 2*time.Second, "heartbeat cadence expected from workers")
		evictFlag     = flag.Int("worker-evict-after", 3, "consecutive missed heartbeats before a worker is evicted and its leases requeued")
		pprofFlag     = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		weights       = weightFlags{}
	)
	flag.Var(weights, "tenant-weight", "fair-share weight as name=w (repeatable; unlisted tenants weigh 1)")
	flag.Parse()

	logger := log.New(os.Stderr, "pipetuned: ", log.LstdFlags)
	var remote *exec.Remote
	switch *execFlag {
	case "local":
	case "remote":
		remote = exec.NewRemote(exec.RemoteConfig{
			HeartbeatInterval: *beatFlag,
			MissedHeartbeats:  *evictFlag,
			Token:             *tokenFlag,
			Logf:              logger.Printf,
		})
	default:
		return fmt.Errorf("unknown -exec-backend %q (want local or remote)", *execFlag)
	}
	sys, err := pipetune.New(
		pipetune.WithSeed(*seedFlag),
		pipetune.WithTrialCache(trainer.DefaultCacheBytes),
	)
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{
		System:        sys,
		Workers:       *workersFlag,
		QueueDepth:    *queueFlag,
		GTPath:        *gtFlag,
		JobPolicy:     *jobPolicyFlag,
		TenantWeights: weights,
		Remote:        remote,
		DrainTimeout:  *drainFlag,
		Logf:          logger.Printf,
	})
	if err != nil {
		return err
	}
	if *bootstrapFlag {
		start := time.Now()
		if err := sys.Bootstrap(pipetune.Catalog()); err != nil {
			return err
		}
		logger.Printf("bootstrap: %d ground-truth entries in %v", sys.GroundTruth().Info().Entries, time.Since(start).Round(time.Millisecond))
	}

	// The profiling endpoints live on their own listener (and their own
	// mux — never the job API's), so an operator can firewall them
	// separately and profiling can't be reached through the public port.
	if *pprofFlag != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *pprofFlag)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer ln.Close()
		logger.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
		go func() {
			if err := http.Serve(ln, pm); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addrFlag, Handler: svc.Handler()}
	// Stop the executor BEFORE the listener closes (preShutdown), not via
	// http.Server.RegisterOnShutdown (Shutdown closes listeners before
	// its hooks run): open SSE streams only end when their job turns
	// terminal, so cancelling jobs and draining the execution plane must
	// precede the HTTP drain or streaming clients would stall it until
	// the timeout every time.
	err = httpserve.ListenAndServe(context.Background(), srv, *drainFlag, func(addr net.Addr) {
		logger.Printf("serving the tuning API on %s (%d workers, job-policy=%s, exec-backend=%s, gt=%s)", addr, *workersFlag, *jobPolicyFlag, *execFlag, orNone(*gtFlag))
		logger.Printf("try  curl -s -X POST localhost%s/v1/jobs -d '{\"workload\":\"lenet/mnist\"}'", httpserve.Port(addr))
		if remote != nil {
			logger.Printf("awaiting workers: pipetune-worker -server http://localhost%s", httpserve.Port(addr))
		}
	}, svc.Shutdown)
	// Idempotent backstop for the listener-error path, where Serve's
	// preShutdown hook never ran; after a normal drain this returns
	// immediately (sync.Once).
	svc.Shutdown()
	logger.Printf("stopped")
	return err
}

// orNone renders an empty path as "(disabled)" for the startup banner.
func orNone(path string) string {
	if path == "" {
		return "(disabled)"
	}
	return path
}
