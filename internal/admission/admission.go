// Package admission is the job-granularity analogue of internal/sched's
// trial placement policies: a tenant-aware admission queue deciding which
// *tuning job* a shared cluster middleware dispatches next. Where
// internal/sched places trials of one job onto nodes, admission arbitrates
// between whole jobs competing for the service's job slots — the
// cluster-level scheduling that makes a shared DL cluster usable for more
// than one tenant at a time (§5, §7.1.2).
//
// Three policies share one contract, reusing the sched vocabulary:
//
//   - fifo — strict submission order across all tenants (the historical
//     single-channel behaviour, byte-for-byte: with default priorities the
//     pop sequence equals the push sequence).
//   - fair — weighted fair sharing by deficit round robin over per-tenant
//     queues: each tenant accumulates credit proportional to its weight
//     and spends it on its jobs' costs, so over any backlogged interval a
//     weight-2 tenant dispatches ~2x the work of a weight-1 tenant,
//     regardless of how many jobs either submits.
//   - sjf — shortest job first over predicted cost, with a starvation
//     guard: the globally oldest job is never bypassed more than
//     starveLimit times, bounding its extra wait the way EASY backfill
//     bounds the queue head's.
//
// Within a tenant, higher Priority dispatches first; ties preserve
// submission order. The queue is deterministic: identical push/pop
// sequences yield identical dispatch orders (no clocks, no randomness),
// which is what makes the service's FIFO-parity and fairness guarantees
// testable to the bit. Position, the queue rank a tenant sees, is read
// off that same Pop sequence, so it has no ranking rule of its own.
//
// The queue is not safe for concurrent use; callers (internal/service)
// guard it with their own mutex.
package admission

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Policy names a job dispatch order.
type Policy string

// Job dispatch policies.
const (
	PolicyFIFO Policy = "fifo"
	PolicyFair Policy = "fair"
	PolicySJF  Policy = "sjf"
)

// ParsePolicy resolves a policy name; the empty string means PolicyFIFO.
func ParsePolicy(name string) (Policy, error) {
	switch Policy(name) {
	case "", PolicyFIFO:
		return PolicyFIFO, nil
	case PolicyFair:
		return PolicyFair, nil
	case PolicySJF:
		return PolicySJF, nil
	default:
		return "", fmt.Errorf("admission: unknown policy %q (want %s, %s or %s)",
			name, PolicyFIFO, PolicyFair, PolicySJF)
	}
}

// ErrFull rejects a Push that would exceed Config.Capacity.
var ErrFull = errors.New("admission: queue full")

// Job is one queued unit of work.
type Job struct {
	// ID identifies the job to Remove and Position.
	ID string
	// Tenant is the fair-share accounting principal (empty is a valid
	// tenant name; the service maps it to "default" before pushing).
	Tenant string
	// Priority orders jobs within a tenant: higher dispatches first, ties
	// preserve submission order. Zero is the default.
	Priority int
	// Cost is the job's predicted service time (any consistent unit): the
	// deficit-round-robin spend and the SJF key. Values <= 0 are treated
	// as 1, degrading fair mode to weighted job-count sharing.
	Cost float64
}

// Config sizes a Queue. The zero value is a plain unbounded FIFO.
type Config struct {
	// Policy selects the dispatch order (default PolicyFIFO).
	Policy Policy
	// Weights maps tenant name to fair-share weight; missing or
	// non-positive entries count as 1. Only PolicyFair consults it.
	Weights map[string]int
	// Capacity bounds the queued-job count (<= 0 means unbounded).
	Capacity int
}

// starveLimit bounds how many times PolicySJF may dispatch past the
// globally oldest job before dispatching it regardless of cost or
// priority.
const starveLimit = 8

// item is one queued job plus its submission sequence number.
type item struct {
	job Job
	seq int
}

// tenantQueue holds one tenant's waiting jobs in dispatch order
// (-Priority, seq) plus its deficit-round-robin credit.
type tenantQueue struct {
	name    string
	items   []item
	deficit float64
}

// before orders items within a tenant: higher priority first, then
// submission order.
func (a item) before(b item) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	return a.seq < b.seq
}

// insert places it in dispatch order (stable: equal priorities append
// after earlier submissions).
func (tq *tenantQueue) insert(it item) {
	i := sort.Search(len(tq.items), func(i int) bool { return it.before(tq.items[i]) })
	tq.items = append(tq.items, item{})
	copy(tq.items[i+1:], tq.items[i:])
	tq.items[i] = it
}

// Queue is a tenant-aware admission queue. Not safe for concurrent use.
type Queue struct {
	cfg     Config
	seq     int
	size    int
	tenants map[string]*tenantQueue
	ring    []string // active tenants in activation order (fair mode)
	cur     int      // current ring position (fair mode)

	oldestSkips int // SJF starvation guard: times the oldest job was bypassed

	rev       uint64 // bumped on every mutation; invalidates the order cache
	cachedRev uint64
	cachedPos map[string]int
}

// New builds a queue. An unknown Config.Policy is an error.
func New(cfg Config) (*Queue, error) {
	p, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	cfg.Policy = p
	return &Queue{cfg: cfg, tenants: make(map[string]*tenantQueue)}, nil
}

// Policy returns the active dispatch policy.
func (q *Queue) Policy() Policy { return q.cfg.Policy }

// Weight returns the fair-share weight the queue uses for a tenant.
func (q *Queue) Weight(tenant string) int {
	if w := q.cfg.Weights[tenant]; w > 0 {
		return w
	}
	return 1
}

// Len returns the number of queued jobs.
func (q *Queue) Len() int { return q.size }

// Full reports whether a Push would return ErrFull.
func (q *Queue) Full() bool { return q.cfg.Capacity > 0 && q.size >= q.cfg.Capacity }

// Push enqueues a job, assigning its submission sequence. It returns
// ErrFull when the queue is at capacity.
func (q *Queue) Push(j Job) error {
	if q.Full() {
		return ErrFull
	}
	if j.Cost <= 0 {
		j.Cost = 1
	}
	tq := q.tenants[j.Tenant]
	if tq == nil {
		tq = &tenantQueue{name: j.Tenant}
		q.tenants[j.Tenant] = tq
	}
	if len(tq.items) == 0 {
		// (Re-)activation: join the round-robin ring with zero credit; the
		// first visit grants the quantum, like every later one.
		q.ring = append(q.ring, j.Tenant)
	}
	q.seq++
	tq.insert(item{job: j, seq: q.seq})
	q.size++
	q.rev++
	return nil
}

// Pop dispatches the next job under the configured policy, reporting false
// on an empty queue.
func (q *Queue) Pop() (Job, bool) {
	if q.size == 0 {
		return Job{}, false
	}
	var it item
	switch q.cfg.Policy {
	case PolicyFair:
		it = q.popFair()
	case PolicySJF:
		it = q.popSJF()
	default:
		it = q.popFIFO()
	}
	q.rev++
	return it.job, true
}

// popFIFO removes the global (-priority, seq) minimum: with default
// priorities, exactly the submission order of the legacy single channel.
func (q *Queue) popFIFO() item {
	var best *tenantQueue
	for _, tq := range q.tenants {
		if len(tq.items) == 0 {
			continue
		}
		if best == nil || tq.items[0].before(best.items[0]) {
			best = tq
		}
	}
	return q.removeAt(best, 0)
}

// popFair runs one deficit-round-robin step: the current tenant dispatches
// while its credit covers its head job's cost; otherwise the turn passes
// to the next active tenant, which earns quantum x weight on arrival.
// The quantum is the maximum cost currently queued — large enough that a
// full ring cycle always raises some tenant's credit past its head
// (termination), small enough that a long-gone expensive job cannot
// coarsen the interleaving forever.
func (q *Queue) popFair() item {
	if q.cur >= len(q.ring) {
		q.cur = 0
	}
	quantum := q.maxQueuedCost()
	for {
		tq := q.tenants[q.ring[q.cur]]
		if len(tq.items) > 0 && tq.deficit >= tq.items[0].job.Cost {
			tq.deficit -= tq.items[0].job.Cost
			return q.removeAt(tq, 0)
		}
		q.cur = (q.cur + 1) % len(q.ring)
		next := q.tenants[q.ring[q.cur]]
		next.deficit += quantum * float64(q.Weight(next.name))
	}
}

// maxQueuedCost returns the largest cost waiting in any tenant queue
// (>= 1: Push normalises costs).
func (q *Queue) maxQueuedCost() float64 {
	m := 1.0
	for _, tq := range q.tenants {
		for _, it := range tq.items {
			if it.job.Cost > m {
				m = it.job.Cost
			}
		}
	}
	return m
}

// popSJF removes the cheapest queued job (priority first, then cost, then
// age), unless the globally oldest job has already been bypassed
// starveLimit times — then the oldest dispatches unconditionally.
func (q *Queue) popSJF() item {
	var bestTQ, oldTQ *tenantQueue
	bestI, oldI := -1, -1
	for _, tq := range q.tenants {
		for i, it := range tq.items {
			if bestI < 0 || sjfBefore(it, bestTQ.items[bestI]) {
				bestTQ, bestI = tq, i
			}
			if oldI < 0 || it.seq < oldTQ.items[oldI].seq {
				oldTQ, oldI = tq, i
			}
		}
	}
	if q.oldestSkips >= starveLimit {
		q.oldestSkips = 0
		return q.removeAt(oldTQ, oldI)
	}
	if bestTQ == oldTQ && bestI == oldI {
		q.oldestSkips = 0
	} else {
		q.oldestSkips++
	}
	return q.removeAt(bestTQ, bestI)
}

// sjfBefore orders jobs for popSJF: priority, then predicted cost, then
// submission order.
func sjfBefore(a, b item) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	if a.job.Cost != b.job.Cost {
		return a.job.Cost < b.job.Cost
	}
	return a.seq < b.seq
}

// removeAt deletes tq.items[i], maintaining ring membership and size.
func (q *Queue) removeAt(tq *tenantQueue, i int) item {
	it := tq.items[i]
	tq.items = append(tq.items[:i], tq.items[i+1:]...)
	q.size--
	if len(tq.items) == 0 {
		tq.deficit = 0
		q.dropFromRing(tq.name)
	}
	return it
}

// dropFromRing removes an emptied tenant from the round-robin ring,
// keeping q.cur on the tenant that currently holds the turn.
func (q *Queue) dropFromRing(name string) {
	for i, n := range q.ring {
		if n != name {
			continue
		}
		q.ring = append(q.ring[:i], q.ring[i+1:]...)
		if i < q.cur {
			q.cur--
		}
		if len(q.ring) > 0 {
			q.cur %= len(q.ring)
		} else {
			q.cur = 0
		}
		return
	}
}

// Remove deletes a queued job by ID (a cancelled job must never dispatch),
// reporting whether it was present.
func (q *Queue) Remove(id string) bool {
	for _, tq := range q.tenants {
		for i, it := range tq.items {
			if it.job.ID == id {
				q.removeAt(tq, i)
				q.oldestSkips = 0 // the oldest may have changed; restart the guard
				q.rev++
				return true
			}
		}
	}
	return false
}

// Position returns a job's 0-based dispatch rank if nothing else
// arrives, or -1 when the job is not queued. The ranks come from Pop
// itself, run on a copy of the queue, so they are exact under every
// policy: the fair ring's credit and the sjf starvation guard included.
func (q *Queue) Position(id string) int {
	if q.cachedRev != q.rev || q.cachedPos == nil {
		q.cachedPos = q.buildPositions()
		q.cachedRev = q.rev
	}
	if pos, ok := q.cachedPos[id]; ok {
		return pos
	}
	return -1
}

// buildPositions drains a copy of the queue, recording the pop order.
func (q *Queue) buildPositions() map[string]int {
	c := *q
	c.tenants = make(map[string]*tenantQueue, len(q.tenants))
	for name, tq := range q.tenants {
		c.tenants[name] = &tenantQueue{name: name, items: slices.Clone(tq.items), deficit: tq.deficit}
	}
	c.ring = slices.Clone(q.ring)
	pos := make(map[string]int, q.size)
	for j, ok := c.Pop(); ok; j, ok = c.Pop() {
		pos[j.ID] = len(pos)
	}
	return pos
}
