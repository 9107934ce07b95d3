// Package client is the Go client for the pipetuned daemon's HTTP/JSON
// API (package api documents the surface; cmd/pipetuned serves it).
//
//	cl := client.New("http://localhost:8080")
//	st, err := cl.Submit(ctx, api.JobRequest{Workload: "lenet/mnist"})
//	...
//	final, err := cl.Wait(ctx, st.ID, 100*time.Millisecond)
//	fmt.Println(final.Result.Best.Score)
//
// Results decoded from the API are the library's own tune.JobResult
// serialisation: a job submitted over HTTP with a fixed seed yields a
// Best trial identical to calling pipetune.System.RunPipeTune in-process
// against the same ground-truth state (the shared database makes job
// history matter, by design — see package api).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"pipetune/api"
)

// Client speaks to one pipetuned endpoint. The zero HTTPClient means
// http.DefaultClient. Safe for concurrent use.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client

	retry RetryConfig

	jitterMu sync.Mutex
	jitter   *rand.Rand // backoff jitter; lazily seeded
}

// Option customises a Client.
type Option func(*Client)

// RetryConfig bounds the client's automatic retries of transient
// failures.
type RetryConfig struct {
	// MaxAttempts is the total number of tries, the first included
	// (default 4 when WithRetry is used; 1 — no retries — otherwise).
	MaxAttempts int
	// BaseDelay is the first backoff (default 100ms); each further
	// attempt doubles it, capped at MaxDelay (default 2s). The actual
	// sleep is jittered uniformly in [delay/2, delay) so synchronised
	// clients do not reconverge on a struggling daemon.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// withDefaults fills unset fields.
func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 4
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 100 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 2 * time.Second
	}
	return rc
}

// WithRetry makes the client retry transient failures — connection
// refused and other dial-level errors, plus 502/503 responses — with
// capped exponential backoff and jitter. Idempotent requests (Job, Jobs,
// GroundTruth, Health, Cancel, Export) retry on any of those; requests
// that mutate on arrival (Submit, Import) are retried ONLY when the
// failure guarantees the daemon never received them (a dial error) —
// never after a response, however transient-looking, was received.
func WithRetry(rc RetryConfig) Option {
	return func(c *Client) { c.retry = rc.withDefaults() }
}

// WithHTTPClient sets the underlying *http.Client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.HTTPClient = h }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		BaseURL: strings.TrimRight(baseURL, "/"),
		// Default: a single attempt (no retries) until WithRetry opts in.
		retry: RetryConfig{MaxAttempts: 1, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out; non-2xx
// responses decode into *api.Error. idempotent marks requests that are
// safe to repeat after the daemon may already have processed them.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	// A zero-value Client (struct literal rather than New) has no retry
	// config; it must still make exactly one attempt.
	attempts := c.retry.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt); err != nil {
				return lastErr
			}
		}
		retryable, err := c.attempt(ctx, method, path, buf, out, idempotent)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// attempt runs one round trip. The bool reports whether the failure is
// safe to retry for this request's idempotency class.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any, idempotent bool) (bool, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return false, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		// Transport-level failure: no response was received. A dial
		// error (connection refused, no route) means the request never
		// reached the daemon, so even non-idempotent requests may retry;
		// anything later (a torn write/read mid-exchange) may have been
		// processed and only idempotent requests retry.
		return idempotent || isDialError(err), fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		err := decodeError(resp)
		// A response was received, so the daemon saw the request:
		// retrying a non-idempotent request here could apply it twice.
		transient := resp.StatusCode == http.StatusBadGateway ||
			resp.StatusCode == http.StatusServiceUnavailable
		return idempotent && transient, err
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("client: decode %s %s: %w", method, path, err)
	}
	return false, nil
}

// isDialError reports failures where the connection was never
// established, so the request cannot have been processed.
func isDialError(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) {
		return op.Op == "dial"
	}
	return false
}

// backoff sleeps for the attempt's jittered exponential delay, bailing
// out early on context cancellation.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.retry.BaseDelay << (attempt - 1)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	c.jitterMu.Lock()
	if c.jitter == nil {
		c.jitter = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Uniform in [d/2, d): full delays stay bounded, synchronised
	// clients spread out.
	d = d/2 + time.Duration(c.jitter.Int63n(int64(d/2)+1))
	c.jitterMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeError turns a non-2xx response into an *api.Error, falling back
// to the HTTP status line when the body carries no JSON error envelope.
func decodeError(resp *http.Response) error {
	apiErr := api.Error{StatusCode: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Message == "" {
		apiErr.Message = resp.Status
	}
	return &apiErr
}

// Submit enqueues a tuning job. Submission is not idempotent: with
// WithRetry it retries only dial-level failures, where the daemon
// provably never saw the request.
func (c *Client) Submit(ctx context.Context, req api.JobRequest) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st, false)
	return st, err
}

// Job fetches one job's status (with result once done).
func (c *Client) Job(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, true)
	return st, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out, true)
	return out, err
}

// Cancel aborts a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st, true)
	return st, err
}

// GroundTruth reports the service's shared similarity database.
func (c *Client) GroundTruth(ctx context.Context) (api.GroundTruthStats, error) {
	var st api.GroundTruthStats
	err := c.do(ctx, http.MethodGet, "/v1/groundtruth", nil, &st, true)
	return st, err
}

// ExportGroundTruth downloads the daemon's full similarity database in
// the snapshot wire format (loadable by another daemon's -gt file or
// ImportGroundTruth).
func (c *Client) ExportGroundTruth(ctx context.Context) (api.GroundTruthDump, error) {
	var dump api.GroundTruthDump
	err := c.do(ctx, http.MethodGet, "/v1/groundtruth/export", nil, &dump, true)
	return dump, err
}

// ImportGroundTruth merges a dump into the daemon's database. Imports
// mutate on arrival, so with WithRetry only dial-level failures retry.
func (c *Client) ImportGroundTruth(ctx context.Context, dump api.GroundTruthDump) (api.ImportResult, error) {
	var res api.ImportResult
	err := c.do(ctx, http.MethodPost, "/v1/groundtruth/import", dump, &res, false)
	return res, err
}

// Health probes the daemon's liveness endpoint.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h, true)
	return h, err
}

// Fleet reports the remote execution plane: registered workers, lease
// depths and drain state. Daemons on the local backend answer 404.
func (c *Client) Fleet(ctx context.Context) (api.FleetStatus, error) {
	var fs api.FleetStatus
	err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &fs, true)
	return fs, err
}

// Metrics fetches the daemon's metrics registry as a typed snapshot —
// the JSON twin of the Prometheus text page at /metrics.
func (c *Client) Metrics(ctx context.Context) (api.MetricsSnapshot, error) {
	var ms api.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &ms, true)
	return ms, err
}

// Wait polls until the job reaches a terminal state and returns the final
// status. poll <= 0 defaults to 200ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (api.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// ErrStreamTruncated reports an event stream that ended before the job's
// terminal state event and without a "lagged" frame — a torn connection
// or a pre-lagged-event server. The caller can re-Stream (events replay
// from the start) or fall back to polling Job/Wait.
var ErrStreamTruncated = errors.New("client: event stream ended before the job finished")

// ErrStreamLagged reports that the server explicitly dropped this
// subscriber for falling behind (api.EventLagged): the job is still
// running or finished without us — the stream just could not keep up.
// Re-Stream to replay from the start (Follow does this automatically),
// or poll Job/Wait for the terminal state.
var ErrStreamLagged = errors.New("client: server dropped the event stream for lagging")

// Stream consumes the job's Server-Sent-Events progress stream, invoking
// fn for every event (replayed from the job's start). It returns nil when
// the terminal state event has been delivered, ErrStreamLagged when the
// server dropped this subscriber for falling behind (fn sees the lagged
// frame first; re-subscribe and replay for the true outcome),
// ErrStreamTruncated if the stream ended without either marker, fn's
// error if it returns one (propagated), or the context's error on
// cancellation.
func (c *Client) Stream(ctx context.Context, id string, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("client: stream %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		case line == "" && len(data) > 0:
			var ev api.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("client: decode event: %w", err)
			}
			data = data[:0]
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Type == api.EventLagged {
				return fmt.Errorf("%w (job %s)", ErrStreamLagged, id)
			}
			if ev.Type == api.EventState && ev.State.Terminal() {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("client: stream %s: %w", id, err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Clean EOF without a terminal state event: the server dropped this
	// subscriber (or shut the stream early).
	return fmt.Errorf("%w (job %s)", ErrStreamTruncated, id)
}

// Follow is Stream with automatic recovery from slow-subscriber drops:
// when the server ends the stream with a lagged frame, Follow re-streams
// (the server replays from the job's start) and suppresses events fn has
// already seen, so fn observes every event exactly once, in order,
// through to the terminal state. Lagged frames themselves are hidden from
// fn — they are transport flow control, not job progress.
func (c *Client) Follow(ctx context.Context, id string, fn func(api.Event) error) error {
	seen := 0
	for {
		err := c.Stream(ctx, id, func(ev api.Event) error {
			if ev.Type == api.EventLagged || ev.Seq <= seen {
				return nil
			}
			seen = ev.Seq
			return fn(ev)
		})
		if errors.Is(err, ErrStreamLagged) {
			continue
		}
		return err
	}
}
