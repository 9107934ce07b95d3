package service

// Service-layer instruments on the shared metrics registry. The service
// always has one: /healthz is derived from these instruments, not from a
// parallel set of counters.

import (
	"pipetune/api"
	"pipetune/internal/metrics"
)

// tenantSeriesCap bounds how many distinct tenants get their own label
// value on the per-tenant families. Tenants past the cap share one
// aggregate row labelled metrics.OverflowLabel — the same row /healthz
// reports for them, so the two surfaces can never disagree about a
// tenant the budget folded away.
const tenantSeriesCap = 64

// svcMetrics is the service's instrument set.
type svcMetrics struct {
	submitted  *metrics.CounterVec      // pipetune_jobs_submitted_total{tenant}
	finished   *metrics.CounterVec      // pipetune_jobs_finished_total{tenant,state}
	queueDepth *metrics.GaugeVec        // pipetune_queue_depth{tenant}
	running    *metrics.GaugeVec        // pipetune_jobs_running{tenant}
	wait       *metrics.DistributionVec // pipetune_queue_wait_seconds{tenant,policy}
	rejected   *metrics.Counter         // pipetune_jobs_rejected_total
	trials     *metrics.Counter         // pipetune_job_trials_total
	sseEvents  *metrics.Counter         // pipetune_sse_events_total
	sseLagged  *metrics.Counter         // pipetune_sse_lagged_subscribers_total
	sseSubs    *metrics.Gauge           // pipetune_sse_subscribers
	// The interned result documents (Service.docs), updated exactly at
	// intern and at release.
	resultDocs     *metrics.Gauge // pipetune_result_documents
	resultDocBytes *metrics.Gauge // pipetune_result_document_bytes
}

// newSvcMetrics registers the service families.
func newSvcMetrics(reg *metrics.Registry) *svcMetrics {
	return &svcMetrics{
		submitted:  reg.CounterVec("pipetune_jobs_submitted_total", "Jobs accepted into the queue.", "tenant"),
		finished:   reg.CounterVec("pipetune_jobs_finished_total", "Jobs reaching a terminal state.", "tenant", "state"),
		queueDepth: reg.GaugeVec("pipetune_queue_depth", "Jobs currently queued.", "tenant"),
		running:    reg.GaugeVec("pipetune_jobs_running", "Jobs currently running.", "tenant"),
		wait:       reg.DistributionVec("pipetune_queue_wait_seconds", "Queue wait between submission and dispatch.", "tenant", "policy"),
		rejected:   reg.Counter("pipetune_jobs_rejected_total", "Submissions refused because the queue was full."),
		trials:     reg.Counter("pipetune_job_trials_total", "Trials completed across all jobs."),
		sseEvents:  reg.Counter("pipetune_sse_events_total", "Events appended to job logs and fanned out."),
		sseLagged:  reg.Counter("pipetune_sse_lagged_subscribers_total", "Event subscribers dropped for falling behind."),
		sseSubs:    reg.Gauge("pipetune_sse_subscribers", "Live event subscribers."),

		resultDocs:     reg.Gauge("pipetune_result_documents", "Distinct result documents held by retained done jobs."),
		resultDocBytes: reg.Gauge("pipetune_result_document_bytes", "Bytes of the distinct result documents retained done jobs hold."),
	}
}

// tenantMetrics is one tenant's cached instrument handles — resolved
// once per tenant so the per-job path never takes the family lock. The
// health endpoint reads these same handles back (satellite of the
// observability plane: /healthz is derived from the registry, not a
// parallel set of counters that could drift from it).
type tenantMetrics struct {
	label     string // tenant name, or metrics.OverflowLabel past the cap
	submitted *metrics.Counter
	queued    *metrics.Gauge
	running   *metrics.Gauge
	done      *metrics.Counter
	failed    *metrics.Counter
	cancelled *metrics.Counter
	wait      *metrics.Distribution
}

// tenantRow resolves the instrument handles for one tenant label.
func (m *svcMetrics) tenantRow(label, policy string) *tenantMetrics {
	return &tenantMetrics{
		label:     label,
		submitted: m.submitted.With(label),
		queued:    m.queueDepth.With(label),
		running:   m.running.With(label),
		done:      m.finished.With(label, string(api.StateDone)),
		failed:    m.finished.With(label, string(api.StateFailed)),
		cancelled: m.finished.With(label, string(api.StateCancelled)),
		wait:      m.wait.With(label, policy),
	}
}
