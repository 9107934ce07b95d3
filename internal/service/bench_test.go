package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pipetune"
	"pipetune/api"
	"pipetune/client"
	"pipetune/internal/stats"
)

// BenchmarkServiceThroughput drives the full API path in-process — HTTP
// submit, status polling, result fetch — over a shared System, reporting
// jobs/sec and the p50/p99 status-poll latency. The reference numbers for
// the same path are jobs_per_s, status_read_p50_ms and
// service.http_status_ms from `go run ./cmd/bench`.
func BenchmarkServiceThroughput(b *testing.B) {
	sys, err := pipetune.New(pipetune.WithSeed(42), pipetune.WithCorpusSize(64, 32))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(Config{System: sys, Workers: 4, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		svc.Shutdown()
	}()
	cl := client.New(srv.URL)
	ctx := context.Background()
	req := api.JobRequest{Workload: "lenet/mnist", Epochs: 1, Seed: 5}

	var (
		mu        sync.Mutex
		pollLatMs []float64
	)
	poll := func(id string) (api.JobStatus, error) {
		t0 := time.Now()
		st, err := cl.Job(ctx, id)
		lat := float64(time.Since(t0).Microseconds()) / 1000
		mu.Lock()
		pollLatMs = append(pollLatMs, lat)
		mu.Unlock()
		return st, err
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		st, err := cl.Submit(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for {
				st, err := poll(id)
				if err != nil {
					b.Error(err)
					return
				}
				if st.State.Terminal() {
					if st.State != api.StateDone {
						b.Errorf("job %s ended %v: %s", id, st.State, st.Error)
					}
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(st.ID)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/sec")
	if len(pollLatMs) > 0 {
		p50, err := stats.Percentile(pollLatMs, 50)
		if err != nil {
			b.Fatal(err)
		}
		p99, err := stats.Percentile(pollLatMs, 99)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p50, "p50-poll-ms")
		b.ReportMetric(p99, "p99-poll-ms")
	}
}

// BenchmarkDispatch measures the pure dispatch path — Submit through
// terminal state over a shared System, no HTTP, with every layer
// publishing into the registry. The daemon's measured figures for the
// same path are jobs_per_s and service.dispatch_ms from `go run
// ./cmd/bench`.
func BenchmarkDispatch(b *testing.B) {
	sys, err := pipetune.New(pipetune.WithSeed(42), pipetune.WithCorpusSize(64, 32))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(Config{System: sys, Workers: 4, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Shutdown()
	req := api.JobRequest{Workload: "lenet/mnist", Epochs: 1, Seed: 5}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		st, err := svc.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			su, err := svc.Subscribe(id)
			if err != nil {
				b.Error(err)
				return
			}
			defer su.Cancel()
			for range su.Events {
			}
		}(st.ID)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "jobs/sec")
}
