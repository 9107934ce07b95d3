package exec

import (
	"time"

	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// This file defines the work protocol's value types — what a Grant,
// Directive or fleet snapshot means once codec.go has decoded it.
// Package api re-exports the fleet surface for external consumers; the
// types live here so the protocol owner needs no import of the api layer.

// TrainerConfig ships the submitting process's trainer-substrate knobs so
// a worker reproduces trial bodies bit-identically: the corpus sizing,
// the contention multiplier and the corpus seed are the only configurable
// inputs of the (otherwise fully calibrated, deterministic) trainer.
type TrainerConfig struct {
	TrainSize int
	TestSize  int
	Load      float64
	DataSeed  uint64
	// CacheBytes > 0 tells the worker to keep a worker-local trial prefix
	// cache of that byte budget, mirroring the daemon's. Zero disables
	// caching on the worker.
	CacheBytes int64
}

// CaptureTrainerConfig extracts the wire-portable configuration of a
// trainer.
func CaptureTrainerConfig(tr *trainer.Runner) TrainerConfig {
	tc := TrainerConfig{
		TrainSize: tr.Data.TrainSize,
		TestSize:  tr.Data.TestSize,
		Load:      tr.Load,
		DataSeed:  tr.DataSeed,
	}
	if tr.Cache != nil {
		tc.CacheBytes = tr.Cache.Cap()
	}
	return tc
}

// NewRunner builds a worker-side trainer reproducing the captured
// configuration.
func (tc TrainerConfig) NewRunner() *trainer.Runner {
	tr := trainer.NewRunner()
	if tc.TrainSize > 0 && tc.TestSize > 0 {
		tr.Data = dataset.Config{TrainSize: tc.TrainSize, TestSize: tc.TestSize}
	}
	if tc.Load > 0 {
		tr.Load = tc.Load
	}
	if tc.DataSeed != 0 {
		tr.DataSeed = tc.DataSeed
	}
	if tc.CacheBytes > 0 {
		tr.Cache = trainer.NewTrialCache(tc.CacheBytes)
	}
	return tr
}

// Assignment is one leased trial: everything a worker needs to compute
// the trial body, plus the lease coordinates every follow-up call must
// echo.
type Assignment struct {
	// LeaseID names the lease; Attempt is its reassignment generation.
	// Both must be echoed on epoch reports and completion — a mismatch
	// means the lease was requeued to another worker and this worker's
	// copy is void (at-most-once commit).
	LeaseID  string
	Attempt  int
	Workload workload.Workload
	Hyper    params.Hyper
	Sys      params.SysConfig
	Seed     uint64
	// StreamEpochs tells the worker to report every epoch boundary and
	// apply the returned configuration switches — the wire form of
	// PipeTune's pipelined system tuning. False for baseline trials,
	// whose system configuration is fixed.
	StreamEpochs bool
	// Trainer reproduces the daemon's trainer substrate on the worker,
	// its prefix cache included: the worker's trainer derives each
	// trial's cache key itself.
	Trainer TrainerConfig
}

// EpochDirective is the daemon's reply to an epoch report.
type EpochDirective struct {
	// Sys, when non-nil, switches the trial's system configuration from
	// the next epoch on (the observer's decision: a ground-truth hit, the
	// next probe, or the settled winner).
	Sys *params.SysConfig
	// Revoked tells the worker its lease is void (evicted and requeued,
	// or the job was cancelled): abandon the trial, do not report again.
	Revoked bool
}

// WorkerStatus is one worker's row in the fleet status.
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	State    string `json:"state"` // "active" or "evicted"
	Capacity int    `json:"capacity"`
	// Inflight counts the worker's currently leased trials; TrialsDone
	// its lifetime committed results.
	Inflight      int       `json:"inflight"`
	TrialsDone    int       `json:"trialsDone"`
	LastHeartbeat time.Time `json:"lastHeartbeat"`
}

// FleetStatus is the execution plane's health surface: embedded in
// GET /healthz and served standalone at GET /v1/fleet.
type FleetStatus struct {
	// Draining is true once shutdown stopped lease issuance.
	Draining bool `json:"draining,omitempty"`
	// PendingTrials are queued unleased; LeasedTrials are on workers now.
	PendingTrials int `json:"pendingTrials"`
	LeasedTrials  int `json:"leasedTrials"`
	// CompletedTrials counts lifetime committed results; RequeuedTrials
	// lifetime lease reassignments caused by worker eviction.
	CompletedTrials int            `json:"completedTrials"`
	RequeuedTrials  int            `json:"requeuedTrials"`
	Workers         []WorkerStatus `json:"workers,omitempty"`
}
