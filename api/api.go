// Package api defines the wire types of the pipetuned HTTP/JSON API. It
// is shared by the service implementation (internal/service), the Go
// client (client) and any external consumer that wants to speak the
// protocol directly.
//
// The API surface (all JSON):
//
//	POST   /v1/jobs             submit a tuning job        -> JobStatus
//	GET    /v1/jobs             list jobs (summaries)      -> []JobStatus
//	GET    /v1/jobs/{id}        one job's status/result    -> JobStatus
//	DELETE /v1/jobs/{id}        cancel a job               -> JobStatus
//	GET    /v1/jobs/{id}/events stream progress (SSE)      -> Event frames
//	GET    /v1/groundtruth      shared ground-truth stats  -> GroundTruthStats
//	GET    /v1/groundtruth/export  dump the database       -> GroundTruthDump
//	POST   /v1/groundtruth/import  merge entries in        -> ImportResult
//	GET    /healthz             liveness + queue depths    -> Health
//
// When the daemon runs the remote execution backend (-exec-backend=
// remote) it additionally serves the upgrade that turns a
// pipetune-worker's connection into the framed work stream (grants,
// epoch observations, result commits and heartbeats are frames, not
// JSON — internal/exec owns that protocol) plus an operator-facing
// fleet surface:
//
//	POST   /v1/stream           worker stream upgrade (101)
//	GET    /v1/fleet            fleet status               -> FleetStatus
//
// The upgrade requires "Authorization: Bearer <token>" when the daemon
// was started with -worker-token; /v1/fleet stays open like /healthz.
// The fleet reports the execution plane only — workers and leases.
//
// A queued job's QueuePosition is its dispatch rank if nothing else
// arrives: the dispatcher's own pop order under the active job policy.
//
// Job results are the library's own tune.JobResult serialisation, so a
// result fetched over HTTP is bit-identical to one produced by calling
// pipetune.System.RunPipeTune in-process with the same spec, seed AND
// ground-truth state (e.g. both fresh). The shared database is the one
// deliberate source of history-dependence: a PipeTune-mode job skips
// probing on ground-truth hits earlier jobs made possible (§7.4), so
// resubmitting a job to a daemon that has learned since will — by design
// — finish faster than its first run.
package api

import (
	"fmt"
	"time"

	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/metrics"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// JobResult aliases the library's job result: the HTTP API returns the
// exact same serialisation the library produces.
type JobResult = tune.JobResult

// TrialRecord aliases the library's per-trial record.
type TrialRecord = tune.TrialRecord

// JobState is a job's lifecycle state. Transitions:
//
//	queued -> running -> done | failed
//	queued -> cancelled            (cancelled while waiting)
//	running -> cancelled           (cancelled mid-run)
type JobState string

// Lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job modes accepted by JobRequest.Mode.
const (
	ModePipeTune = "pipetune" // PipeTune middleware (default)
	ModeTuneV1   = "tune-v1"  // baseline: hyper only, fixed system config
	ModeTuneV2   = "tune-v2"  // baseline: system folded into the search space
)

// Objectives accepted by JobRequest.Objective.
const (
	ObjectiveAccuracy        = "accuracy"
	ObjectiveAccuracyPerTime = "accuracy/time"
)

// JobRequest is the submission body of POST /v1/jobs.
type JobRequest struct {
	// Workload is the "model/dataset" label, e.g. "lenet/mnist" (see
	// ParseWorkload for the vocabulary).
	Workload string `json:"workload"`
	// Mode selects the middleware: "pipetune" (default), "tune-v1" or
	// "tune-v2".
	Mode string `json:"mode,omitempty"`
	// Objective is "accuracy" or "accuracy/time". Empty defaults to
	// accuracy, except in tune-v2 mode which defaults to accuracy/time
	// (the paper's V2 semantics).
	Objective string `json:"objective,omitempty"`
	// Tenant names the fair-share accounting principal the job bills to.
	// Empty maps to "default". Tenancy only changes *when* a job
	// dispatches (under the service's fair job policy), never how
	// it runs.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant: higher dispatches first, ties
	// preserve submission order. Zero is the default. Ignored by the pure
	// FIFO job policy only in the sense that every job defaults to zero —
	// a non-zero priority reorders there too.
	Priority int `json:"priority,omitempty"`
	// Seed fixes the job's randomness; 0 uses the service's master seed.
	// Repeat submissions with the same seed replay the same search, but a
	// PipeTune-mode job's trial durations also depend on the shared
	// ground-truth state, which grows as the daemon serves jobs.
	Seed uint64 `json:"seed,omitempty"`
	// Epochs overrides the full-budget epoch count (0 = service default).
	Epochs int `json:"epochs,omitempty"`
	// MaxParallel bounds the job's concurrent trials (0 = cluster-derived).
	MaxParallel int `json:"maxParallel,omitempty"`
}

// JobStatus is the canonical job representation returned by every job
// endpoint.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Tenant is the resolved accounting principal ("default" when the
	// request named none).
	Tenant string `json:"tenant"`
	// Priority echoes the request's dispatch priority.
	Priority   int        `json:"priority,omitempty"`
	Request    JobRequest `json:"request"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	TrialsDone int        `json:"trialsDone"`
	Error      string     `json:"error,omitempty"`
	// QueuePosition is the job's 0-based dispatch rank if nothing else
	// arrives, set only while the job is queued.
	QueuePosition *int `json:"queuePosition,omitempty"`
	// PredictedDuration is the cost model's service-time estimate for one
	// full-budget trial of this job (simulated seconds) — the relative
	// cost the fair job policy schedules on. 0 when the model
	// cannot price the workload.
	PredictedDuration float64 `json:"predictedDuration,omitempty"`
	// Result is set once State is "done" — on single-job surfaces (GET
	// /v1/jobs/{id}, DELETE). The list endpoint returns summaries without
	// results: fetch the job by ID for its trial history. It must stay the
	// struct's last field: the service serves a done job by splicing its
	// stored result document in at the end of the header's encoding.
	Result *JobResult `json:"result,omitempty"`
}

// Event is one frame of the GET /v1/jobs/{id}/events stream. Trial events
// carry Trial; the single terminal state event carries State (and Error
// when the job failed). A "lagged" event is terminal for the *stream*, not
// the job: the server dropped this subscriber because it fell too far
// behind, and the client should re-subscribe (the replay is complete from
// the start) or fall back to polling. Lagged frames are per-subscriber and
// carry Seq 0 — they are not part of the job's replayable event log.
type Event struct {
	Type  string      `json:"type"` // "trial" | "state" | "lagged"
	JobID string      `json:"jobId"`
	Seq   int         `json:"seq"`
	Trial *TrialEvent `json:"trial,omitempty"`
	State JobState    `json:"state,omitempty"`
	Error string      `json:"error,omitempty"`
}

// Event types.
const (
	EventTrial = "trial"
	EventState = "state"
	// EventLagged tells a subscriber it was dropped for falling behind:
	// the stream ends here without the job's terminal state, and the
	// client must re-subscribe and replay to learn the true outcome.
	EventLagged = "lagged"
)

// TrialEvent summarises one completed trial, emitted in simulated
// completion order as the job runs.
type TrialEvent struct {
	TrialID  int     `json:"trialId"`
	Accuracy float64 `json:"accuracy"`
	Duration float64 `json:"duration"` // simulated seconds
	EnergyJ  float64 `json:"energyJ"`
	Epochs   int     `json:"epochs"`
}

// GroundTruthEntry aliases the store's entry record: one historical
// profile with its known-best system configuration.
type GroundTruthEntry = gt.Entry

// GroundTruthDump is the GET /v1/groundtruth/export body and the POST
// /v1/groundtruth/import request: the same legacy-compatible snapshot
// format the stores read and write on disk.
type GroundTruthDump struct {
	Entries []GroundTruthEntry `json:"entries"`
}

// ImportResult is the POST /v1/groundtruth/import response.
type ImportResult struct {
	// Imported counts the entries merged into the database.
	Imported int `json:"imported"`
	// Stats is the database state after the merge.
	Stats GroundTruthStats `json:"stats"`
}

// Aliases of other layers' own definitions, so each surface has one
// owner.
type (
	// GroundTruthStats is the GET /v1/groundtruth body: the shared
	// similarity database's size, lookup counters and data revision.
	GroundTruthStats = gt.Info
	// FleetStatus is the execution plane's health surface (GET /v1/fleet
	// and Health.Fleet).
	FleetStatus = exec.FleetStatus
	// WorkerStatus is one worker's row in FleetStatus.
	WorkerStatus = exec.WorkerStatus
	// MetricsSnapshot is the GET /v1/metrics body: the full metrics
	// registry as typed JSON — every family the Prometheus /metrics page
	// exposes, with summaries carrying count/sum/min/max and the exported
	// quantiles instead of text-format series.
	MetricsSnapshot = metrics.RegistrySnapshot
	// MetricsFamily is one named family in a MetricsSnapshot.
	MetricsFamily = metrics.Family
	// MetricsSample is one labelled series within a family.
	MetricsSample = metrics.Sample
)

// Health is the GET /healthz body.
type Health struct {
	Status  string `json:"status"` // always "ok" when the server responds
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Workers int    `json:"workers"`
	// JobPolicy names the active job dispatch policy ("fifo" or "fair").
	JobPolicy string `json:"jobPolicy"`
	// ExecBackend names the active trial execution backend ("local",
	// "remote").
	ExecBackend string `json:"execBackend,omitempty"`
	// Tenants reports per-tenant queue depths and wait-time statistics,
	// sorted by tenant name. Only tenants that have ever submitted appear.
	Tenants []TenantHealth `json:"tenants,omitempty"`
	// Fleet reports the remote execution plane — registered workers,
	// lease depths, drain state. Absent on the local backend.
	Fleet *FleetStatus `json:"fleet,omitempty"`
}

// TenantHealth is one tenant's slice of the service in the Health body.
type TenantHealth struct {
	Tenant string `json:"tenant"`
	// Weight is the fair-share weight the dispatcher bills this tenant at.
	Weight   int `json:"weight"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Finished int `json:"finished"`
	// MeanWaitSeconds / MaxWaitSeconds are wall-clock queue waits of the
	// tenant's dispatched jobs (submission to worker pickup).
	MeanWaitSeconds float64 `json:"meanWaitSeconds"`
	MaxWaitSeconds  float64 `json:"maxWaitSeconds"`
}

// Error is the JSON error body every non-2xx response carries.
type Error struct {
	StatusCode int    `json:"-"`
	Message    string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("pipetuned: %s (HTTP %d)", e.Message, e.StatusCode)
}

// ParseWorkload resolves a "model/dataset" label (the workload.Name()
// vocabulary: models lenet, cnn, lstm, jacobi, spkmeans, bfs; datasets
// mnist, fashion, news20, rodinia) to a workload. It accepts any
// model/dataset combination the simulator can train, not only the seven
// Table 3 pairings.
func ParseWorkload(name string) (workload.Workload, error) {
	models := []workload.Model{
		workload.LeNet5, workload.CNN, workload.LSTM,
		workload.Jacobi, workload.SPKMeans, workload.BFS,
	}
	datasets := []workload.Dataset{
		workload.MNIST, workload.FashionMNIST, workload.News20, workload.Rodinia,
	}
	for _, m := range models {
		for _, d := range datasets {
			w := workload.Workload{Model: m, Dataset: d}
			if w.Name() == name {
				return w, nil
			}
		}
	}
	return workload.Workload{}, fmt.Errorf("api: unknown workload %q (want model/dataset, e.g. %q)",
		name, workload.Catalog()[0].Name())
}
