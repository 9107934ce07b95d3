// Command pipetune-worker is a trial-execution worker: it holds one
// persistent framed stream to a pipetuned daemon running
// -exec-backend=remote, is granted trial bodies in batches, computes
// them on a local trainer substrate reproducing the daemon's
// configuration (so results are bit-identical to an in-process run),
// streams per-epoch observations back — which is how PipeTune's
// pipelined system tuning keeps firing mid-trial — commits
// results as its trainer computed them and heartbeats.
//
// Usage:
//
//	pipetune-worker -server http://daemon:8080 [-token secret]
//	                [-capacity 1] [-name host]
//
// Capacity is how many trial bodies compute concurrently; start more
// processes (on more machines) to scale the fleet out — the daemon
// requeues leases from any worker that dies, so workers are fully
// disposable. The worker heartbeats at the cadence the daemon advertises
// (pipetuned -worker-heartbeat). Everything else a trial body depends
// on — corpus sizing, contention, trial cache budget — arrives with each
// lease, so every worker runs a trial exactly as the daemon would.
//
// The worker and the daemon must come from the same tree: a daemon
// speaking another stream protocol version refuses the upgrade (426),
// and the worker exits 1 naming both versions instead of reconnecting.
//
// The worker holds no durable state: killing it outright (SIGKILL, a
// crashed machine) loses nothing — the daemon reassigns its leases
// after the eviction window. SIGINT/SIGTERM stops leasing at once and
// exits after at most one in-flight trial body per capacity slot (a
// trial body is the cancellation granularity, as on the daemon's local
// pool); those bodies' commits can no longer land, so impatient
// operators may simply SIGKILL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pipetune/internal/exec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipetune-worker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		serverFlag   = flag.String("server", "http://localhost:8080", "pipetuned base URL")
		tokenFlag    = flag.String("token", "", "shared worker token (must match the daemon's -worker-token)")
		capacityFlag = flag.Int("capacity", 1, "trial bodies computed concurrently")
		nameFlag     = flag.String("name", "", "worker label in fleet status (default: hostname)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "pipetune-worker: ", log.LstdFlags)
	agent := exec.NewAgent(exec.AgentConfig{
		Server:   *serverFlag,
		Token:    *tokenFlag,
		Name:     *nameFlag,
		Capacity: *capacityFlag,
		Logf:     logger.Printf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("joining fleet at %s (capacity %d)", *serverFlag, *capacityFlag)
	start := time.Now()
	err := agent.Run(ctx)
	if errors.Is(err, context.Canceled) {
		logger.Printf("stopped after %v", time.Since(start).Round(time.Second))
		return nil
	}
	return err
}
