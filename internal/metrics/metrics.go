// Package metrics is pipetune's operational telemetry plane: a
// lock-cheap registry of counters, gauges and distributions
// that every layer of the daemon (admission, dispatch, ground-truth
// store, execution plane) instruments through.
//
// Design constraints, in order:
//
//   - Hot paths allocate nothing. Counter.Add, Gauge.Set and
//     Distribution.Observe are a handful of atomic operations on
//     pre-resolved handles; callers resolve label sets once (per
//     tenant, per worker) and cache the returned instrument, never
//     calling Vec.With per event.
//   - Each instrument is one cell of atomics: single-series writes
//     take no lock, and a scrape holds off only Registry.Update, so a
//     multi-series update is never half-visible in it.
//   - Distributions retain no samples. Observations land in a fixed
//     log-spaced bucket sketch (quarter-powers-of-two bounds) that is
//     mergeable across processes by bucket-wise addition — workers
//     ship their sketches inside heartbeats and the daemon folds them
//     in. Quantile estimates carry a bounded relative error of
//     2^(1/8)-1 ≈ 9%.
//   - Label cardinality is budgeted. A Vec admits at most a fixed
//     number of distinct label sets; once the budget is spent, new
//     label sets collapse into a single overflow series whose label
//     values are all OverflowLabel. A tenant flood degrades precision,
//     never memory.
//
// The registry renders Prometheus text exposition (WritePrometheus) and a
// typed JSON snapshot (Snapshot).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// OverflowLabel is the label value that replaces every label of a
// series admitted past a Vec's cardinality budget. All overflowed
// series of one family collapse into this single rollup.
const OverflowLabel = "__other__"

// DefaultMaxCardinality is the per-Vec budget of distinct label sets a
// registry admits before routing new sets to the overflow series.
const DefaultMaxCardinality = 256

// Counter is a monotonically increasing uint64. All methods are safe
// on a nil receiver (no-ops / zero), so an uninstrumented component
// can hold nil handles and pay only a predictable branch.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Calling with a negative delta is impossible by type;
// counters only go up.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value loads the count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous float64 value (queue depth, subscriber
// count). Set and Add are atomic; Add is a CAS loop so concurrent
// increments never lose updates. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value loads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Kind discriminates instrument families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindDistribution
)

// String renders the Prometheus TYPE keyword for the kind
// (distributions expose as summaries: pre-aggregated quantiles).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// Registry is a namespace of instrument families. Lookups take a
// read lock on the family index; the instruments themselves are pure
// atomics. One registry per daemon; tests create their own so nothing
// is process-global.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// updMu is held by an Update and by a scrape's walk, so a
	// multi-series update is atomic with respect to a scrape.
	updMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Update runs fn, a group of writes to several series that a scrape
// must show all of or none of — a worker's trial count and the sketches
// shipped with it, which readers pair up. Writes to a single series need
// no Update and take no lock; fn must not call Update, Snapshot or
// WritePrometheus on the same registry.
func (r *Registry) Update(fn func()) {
	if r == nil {
		fn()
		return
	}
	r.updMu.Lock()
	defer r.updMu.Unlock()
	fn()
}

// consistent runs walk — one scrape's pass over every series — with
// Updates held off, so no Update is half-visible in the pass. Writes to
// a single series take no lock and carry on during the walk.
func (r *Registry) consistent(walk func()) {
	r.updMu.Lock()
	defer r.updMu.Unlock()
	walk()
}

// family is one named metric: help text, kind, label schema and its
// children (one child per admitted label set; the "" key is the
// unlabelled singleton of plain instruments).
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]*child
	overflow *child // set once the cardinality budget is spent
}

// child is one series: its label values plus exactly one live
// instrument matching the family kind.
type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	dist   *Distribution
}

// labelKey joins label values into a map key. 0x1f (unit separator)
// cannot collide with printable label values in practice and keeps the
// key allocation off any hot path — With is called once per label set.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

func (r *Registry) family(name, help string, kind Kind, labels []string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{
				name:     name,
				help:     help,
				kind:     kind,
				labels:   labels,
				children: make(map[string]*child),
			}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %q re-registered with conflicting kind or labels", name))
	}
	return f
}

// with returns the child for the given label values, creating it if
// the cardinality budget allows and routing to the overflow series
// otherwise.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	if len(f.labels) > 0 && len(f.children) >= DefaultMaxCardinality {
		if f.overflow == nil {
			ov := make([]string, len(f.labels))
			for i := range ov {
				ov[i] = OverflowLabel
			}
			f.overflow = f.newChild(ov)
			f.children[labelKey(ov)] = f.overflow
		}
		return f.overflow
	}
	c = f.newChild(append([]string(nil), values...))
	f.children[key] = c
	return c
}

func (f *family) newChild(values []string) *child {
	c := &child{values: values}
	switch f.kind {
	case KindCounter:
		c.ctr = new(Counter)
	case KindGauge:
		c.gauge = new(Gauge)
	default:
		c.dist = NewDistribution()
	}
	return c
}

// sortedChildren returns the family's series ordered by label values,
// for deterministic exposition.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	out := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Counter registers (or fetches) an unlabelled counter. Nil-safe: a
// nil registry yields a nil instrument whose methods no-op.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindCounter, nil).with(nil).ctr
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindGauge, nil).with(nil).gauge
}

// Distribution registers (or fetches) an unlabelled distribution.
func (r *Registry) Distribution(name, help string) *Distribution {
	if r == nil {
		return nil
	}
	return r.family(name, help, KindDistribution, nil).with(nil).dist
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, KindCounter, labels)}
}

// With resolves one series. Resolution takes the family lock — cache
// the returned handle rather than calling With per event.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.with(values).ctr
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, KindGauge, labels)}
}

// With resolves one series; see CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.with(values).gauge
}

// DistributionVec is a distribution family keyed by label values.
type DistributionVec struct{ f *family }

// DistributionVec registers a labelled distribution family.
func (r *Registry) DistributionVec(name, help string, labels ...string) *DistributionVec {
	if r == nil {
		return nil
	}
	return &DistributionVec{f: r.family(name, help, KindDistribution, labels)}
}

// With resolves one series; see CounterVec.With.
func (v *DistributionVec) With(values ...string) *Distribution {
	if v == nil {
		return nil
	}
	return v.f.with(values).dist
}

// sortedFamilies returns families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
