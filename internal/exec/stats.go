package exec

import (
	"sync/atomic"

	"pipetune/internal/metrics"
)

// WorkerSeries is a worker's cumulative local telemetry, shipped on the
// heartbeat rather than scraped: the Stats frame is the beat. Values
// are cumulative per worker session — the daemon diffs consecutive
// snapshots from one registration and folds the delta into its own
// registry, so fleet-wide aggregates survive re-registration without
// double counting. The tail between a worker's last heartbeat and its
// death is lost by design (at most one beat interval of telemetry).
type WorkerSeries struct {
	// Trials counts trial bodies computed (successfully or not);
	// Epochs counts the epoch records those bodies produced.
	Trials uint64
	Epochs uint64
	// TrialSeconds is the sketch of per-trial wall compute time; its
	// Sum is total compute seconds, so epochs/sec falls out as
	// Epochs / TrialSeconds.Sum.
	TrialSeconds metrics.DistSnapshot
	// TrainEpochSeconds and EvalSeconds sketch the nn kernel wall
	// times inside those trials (one observation per real SGD epoch /
	// test-set evaluation), so fleet dashboards see the same
	// nn_train_epoch_seconds pipeline the local trainer registry
	// exposes.
	TrainEpochSeconds metrics.DistSnapshot
	EvalSeconds       metrics.DistSnapshot
}

// workerStats is the worker-side collector behind WorkerSeries: one
// per agent session, so cumulative values restart at zero exactly when
// the daemon's per-registration baseline does.
type workerStats struct {
	trials            atomic.Uint64
	epochs            atomic.Uint64
	trialSeconds      *metrics.Distribution
	trainEpochSeconds *metrics.Distribution
	evalSeconds       *metrics.Distribution
}

func newWorkerStats() *workerStats {
	return &workerStats{
		trialSeconds:      metrics.NewDistribution(),
		trainEpochSeconds: metrics.NewDistribution(),
		evalSeconds:       metrics.NewDistribution(),
	}
}

// observeTrial records one finished trial body.
func (s *workerStats) observeTrial(seconds float64, epochs int) {
	if s == nil {
		return
	}
	s.trials.Add(1)
	s.epochs.Add(uint64(epochs))
	s.trialSeconds.Observe(seconds)
}

// series snapshots the cumulative state for shipping.
func (s *workerStats) series() WorkerSeries {
	if s == nil {
		return WorkerSeries{}
	}
	return WorkerSeries{
		Trials:            s.trials.Load(),
		Epochs:            s.epochs.Load(),
		TrialSeconds:      s.trialSeconds.Snapshot(),
		TrainEpochSeconds: s.trainEpochSeconds.Snapshot(),
		EvalSeconds:       s.evalSeconds.Snapshot(),
	}
}

// remoteMetrics holds the execution plane's registry and its resolved
// handles. The fleet surfaces — FleetStatus.CompletedTrials, /healthz —
// read these same counters, so health and /metrics cannot disagree.
type remoteMetrics struct {
	reg *metrics.Registry

	leaseGrants *metrics.Counter
	evictions   *metrics.Counter
	requeues    *metrics.Counter
	completed   *metrics.Counter
	commits     *metrics.CounterVec // outcome: committed|failed|abandoned|empty

	// Stream traffic, pre-resolved per direction.
	binRxFrames, binTxFrames *metrics.Counter
	binRxBytes, binTxBytes   *metrics.Counter

	// Fleet-wide worker series, labelled by worker name.
	workerTrials            *metrics.CounterVec
	workerEpochs            *metrics.CounterVec
	workerTrialSeconds      *metrics.DistributionVec
	workerTrainEpochSeconds *metrics.DistributionVec
	workerEvalSeconds       *metrics.DistributionVec
}

func newRemoteMetrics(reg *metrics.Registry) *remoteMetrics {
	m := &remoteMetrics{
		reg: reg,
		leaseGrants: reg.Counter("pipetune_exec_lease_grants_total",
			"Trial leases granted to workers."),
		evictions: reg.Counter("pipetune_exec_evictions_total",
			"Workers evicted for missed heartbeats, stream loss or corrupt frames."),
		requeues: reg.Counter("pipetune_exec_requeues_total",
			"Lease reassignments after eviction or worker abandonment."),
		completed: reg.Counter("pipetune_exec_completed_trials_total",
			"Trials that reached a successful terminal result."),
		commits: reg.CounterVec("pipetune_exec_commits_total",
			"Worker result commits by outcome.", "outcome"),
		workerTrials: reg.CounterVec("pipetune_worker_trials_total",
			"Trial bodies computed, by worker (heartbeat-shipped).", "worker"),
		workerEpochs: reg.CounterVec("pipetune_worker_epochs_total",
			"Epoch records computed, by worker (heartbeat-shipped).", "worker"),
		workerTrialSeconds: reg.DistributionVec("pipetune_worker_trial_seconds",
			"Per-trial wall compute time, by worker (heartbeat-shipped sketch).", "worker"),
		workerTrainEpochSeconds: reg.DistributionVec("pipetune_worker_train_epoch_seconds",
			"Per-epoch nn kernel wall time, by worker (heartbeat-shipped sketch).", "worker"),
		workerEvalSeconds: reg.DistributionVec("pipetune_worker_eval_seconds",
			"Per-evaluation nn kernel wall time, by worker (heartbeat-shipped sketch).", "worker"),
	}
	bytes := reg.CounterVec("pipetune_exec_wire_bytes_total",
		"Stream bytes by direction (daemon view).", "wire", "dir")
	frames := reg.CounterVec("pipetune_exec_wire_frames_total",
		"Stream frames by direction.", "wire", "dir")
	m.binRxFrames, m.binTxFrames = frames.With("binary", "rx"), frames.With("binary", "tx")
	m.binRxBytes, m.binTxBytes = bytes.With("binary", "rx"), bytes.With("binary", "tx")
	return m
}

// ingestSeriesLocked folds one worker's cumulative snapshot into the
// fleet aggregates. Callers hold r.mu; w is the active registration
// the snapshot arrived on. The series move together in one registry
// Update: readers pair them (trials against epoch observations is how
// a scraper tells that a worker's trials have all been delivered), so a
// scrape must never show the new trial count beside the old sketches.
func (r *Remote) ingestSeriesLocked(w *workerEntry, cur WorkerSeries) {
	prev := w.series
	name := w.name
	if name == "" {
		name = w.id
	}
	r.met.reg.Update(func() {
		if d := cur.Trials - prev.Trials; cur.Trials > prev.Trials {
			r.met.workerTrials.With(name).Add(d)
		}
		if d := cur.Epochs - prev.Epochs; cur.Epochs > prev.Epochs {
			r.met.workerEpochs.With(name).Add(d)
		}
		r.met.workerTrialSeconds.With(name).Merge(cur.TrialSeconds.Delta(prev.TrialSeconds))
		r.met.workerTrainEpochSeconds.With(name).Merge(cur.TrainEpochSeconds.Delta(prev.TrainEpochSeconds))
		r.met.workerEvalSeconds.With(name).Merge(cur.EvalSeconds.Delta(prev.EvalSeconds))
	})
	w.series = cur
}

// ingestWorkerSeries records a heartbeat (a Stats frame) from an active
// worker.
func (r *Remote) ingestWorkerSeries(workerID string, s WorkerSeries) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[workerID]
	if w == nil || w.state != workerActive {
		return ErrUnknownWorker
	}
	r.ingestSeriesLocked(w, s)
	r.cond.Broadcast()
	return nil
}
