package service

import (
	"sort"
	"time"

	"pipetune/api"
	"pipetune/internal/admission"
	"pipetune/internal/metrics"
)

// dispatcher is the service's job queue: a tenant-aware admission queue
// (internal/admission) and per-tenant accounting. It owns no lock of its
// own — every method requires Service.mu held, so a single critical
// section spans the capacity check, the job-ID allocation and the
// enqueue, closing the ID-burn race a separate lock would reopen. It owns
// queue membership: a job leaves the queue by dispatch (Service's
// dispatchLocked pops it) or by turning terminal while queued.
//
// Per-tenant accounting lives in the metrics registry, not in a parallel
// set of ints: the dispatcher caches one tenantMetrics row per tenant
// label (bounded by tenantSeriesCap, overflow shared) and both /metrics
// and /healthz read those same instruments — the two surfaces cannot
// disagree.
type dispatcher struct {
	q   *admission.Queue
	met *svcMetrics

	// byTenant maps every raw tenant name ever seen to its row; rows maps
	// the bounded set of label values (real tenants up to the cap, plus
	// the shared overflow row) that actually exist as series.
	byTenant map[string]*tenantMetrics
	rows     map[string]*tenantMetrics
}

// newDispatcher validates the job policy and tenant weights from cfg.
func newDispatcher(cfg Config, met *svcMetrics) (*dispatcher, error) {
	q, err := admission.New(admission.Config{
		Policy:   admission.Policy(cfg.JobPolicy),
		Weights:  cfg.TenantWeights,
		Capacity: cfg.QueueDepth,
	})
	if err != nil {
		return nil, err
	}
	return &dispatcher{
		q:        q,
		met:      met,
		byTenant: make(map[string]*tenantMetrics),
		rows:     make(map[string]*tenantMetrics),
	}, nil
}

// tenant returns (resolving on first use) a tenant's instrument row.
// Past tenantSeriesCap distinct tenants, new ones share the overflow
// row — the documented cardinality budget.
func (d *dispatcher) tenant(name string) *tenantMetrics {
	if tm, ok := d.byTenant[name]; ok {
		return tm
	}
	label := name
	if len(d.rows) >= tenantSeriesCap {
		label = metrics.OverflowLabel
	}
	tm, ok := d.rows[label]
	if !ok {
		tm = d.met.tenantRow(label, string(d.q.Policy()))
		d.rows[label] = tm
	}
	d.byTenant[name] = tm
	return tm
}

// pushLocked admits a job into the queue. The caller has already verified
// capacity via q.Full() under the same lock.
func (d *dispatcher) pushLocked(jb *job) error {
	err := d.q.Push(admission.Job{
		ID:       jb.id,
		Tenant:   jb.tenant,
		Priority: jb.req.Priority,
		Cost:     jb.predicted,
	})
	if err != nil {
		return err
	}
	tm := d.tenant(jb.tenant)
	tm.submitted.Inc()
	tm.queued.Add(1)
	return nil
}

// onDispatchLocked records a queued->running transition and the job's
// queue wait.
func (d *dispatcher) onDispatchLocked(tenant string, wait time.Duration) {
	tm := d.tenant(tenant)
	tm.queued.Add(-1)
	tm.running.Add(1)
	tm.wait.Observe(wait.Seconds())
}

// onFinishLocked records jb's transition from its current state into the
// terminal state next; a job cancelled while queued leaves the queue, so
// it can never dispatch.
func (d *dispatcher) onFinishLocked(jb *job, next api.JobState) {
	tm := d.tenant(jb.tenant)
	switch jb.state {
	case api.StateQueued:
		d.q.Remove(jb.id)
		tm.queued.Add(-1)
	case api.StateRunning:
		tm.running.Add(-1)
	}
	switch next {
	case api.StateDone:
		tm.done.Inc()
	case api.StateFailed:
		tm.failed.Inc()
	default:
		tm.cancelled.Inc()
	}
}

// healthLocked renders the per-tenant Health rows, sorted by tenant
// label, straight from the registry instruments.
func (d *dispatcher) healthLocked() []api.TenantHealth {
	labels := make([]string, 0, len(d.rows))
	for label := range d.rows {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	out := make([]api.TenantHealth, 0, len(labels))
	for _, label := range labels {
		tm := d.rows[label]
		th := api.TenantHealth{
			Tenant:   label,
			Weight:   d.q.Weight(label),
			Queued:   int(tm.queued.Value()),
			Running:  int(tm.running.Value()),
			Finished: int(tm.done.Value() + tm.failed.Value() + tm.cancelled.Value()),
		}
		if n := tm.wait.Count(); n > 0 {
			th.MeanWaitSeconds = tm.wait.Sum() / float64(n)
			th.MaxWaitSeconds = tm.wait.Max()
		}
		out = append(out, th)
	}
	return out
}

// countsLocked sums the live queue-depth and running gauges across
// tenant rows — the health endpoint's headline numbers.
func (d *dispatcher) countsLocked() (queued, running int) {
	for _, tm := range d.rows {
		queued += int(tm.queued.Value())
		running += int(tm.running.Value())
	}
	return queued, running
}
