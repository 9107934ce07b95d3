package sched

import (
	"fmt"
	"math"
)

// Policy names accepted by ByName (and re-exported by the pipetune facade).
const (
	NameFIFO          = "fifo"
	NameSJF           = "sjf"
	NameBackfill      = "backfill"
	NameCheapest      = "cheapest"
	NamePerfPerDollar = "perf-per-dollar"
)

// PickContext is the read-only view a Policy decides from: only what the
// built-in policies read. The engine calls Pick only when at least one
// admission slot is free; the policy chooses which queued task (by index)
// starts next, or -1 to admit nothing yet.
type PickContext struct {
	// Now is the current simulated time.
	Now float64
	// Queue holds the waiting tasks in submission order.
	Queue []Task
	// FitsNow reports whether Queue[i]'s footprint could be placed
	// immediately (on any up node of any class).
	FitsNow func(i int) bool
	// EarliestStart returns the earliest time Queue[i] could start if no
	// further tasks were admitted, replaying the running set's scheduled
	// resizes and completions. It returns +Inf only if the task could
	// never fit (which Submit already rejects).
	EarliestStart func(i int) float64

	// The cost-aware placement axis, read by ClassChooser policies.
	//
	// Classes is the pool's own node-class list in declaration order,
	// shared with the engine: policies must not modify it.
	Classes []ClassCap
	// ClassFits reports whether Queue[i] currently fits a node of class c.
	ClassFits func(i, c int) bool
	// ClassCost prices Queue[i] on class c in dollars: its Duration
	// divided by the class speed factor, /3600 × the class's hourly rate.
	ClassCost func(i, c int) float64
}

// Policy selects the next queued task to place on the cluster.
// Implementations must be deterministic: identical contexts must yield
// identical picks, since the whole simulation's reproducibility rests on it.
type Policy interface {
	Name() string
	Pick(ctx *PickContext) int
}

// ClassChooser is the optional second placement axis: a Policy that also
// chooses *which node class* the picked task lands on. The engine consults
// it after Pick; returning -1 (or not implementing the interface) falls
// back to global first-fit across all nodes.
type ClassChooser interface {
	ChooseClass(ctx *PickContext, i int) int
}

// ByName resolves a policy from its name.
func ByName(name string) (Policy, error) {
	switch name {
	case NameFIFO:
		return FIFO(), nil
	case NameSJF:
		return SJF(), nil
	case NameBackfill:
		return Backfill(), nil
	case NameCheapest:
		return Cheapest(), nil
	case NamePerfPerDollar:
		return PerfPerDollar(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (want %s, %s, %s, %s or %s)",
			name, NameFIFO, NameSJF, NameBackfill, NameCheapest, NamePerfPerDollar)
	}
}

// ------------------------------------------------------------------ FIFO ---

type fifoPolicy struct{}

// FIFO returns strict first-in-first-out placement with head-of-line
// blocking: the oldest task starts as soon as its footprint fits, and
// nothing overtakes it. This is the paper's §5.1 job scheduling and the
// exact admission order of the old barrier scheduler, which keeps the two
// schedulers' makespans identical on identical inputs.
func FIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string { return NameFIFO }

func (fifoPolicy) Pick(ctx *PickContext) int {
	if len(ctx.Queue) == 0 || !ctx.FitsNow(0) {
		return -1
	}
	return 0
}

// ------------------------------------------------------------------- SJF ---

type sjfPolicy struct{}

// SJF returns shortest-job-first placement: among the queued tasks that fit
// right now, the one with the smallest duration starts (ties resolve to the
// oldest). SJF minimises mean response time on a single server but may
// starve long tasks under sustained load.
func SJF() Policy { return sjfPolicy{} }

func (sjfPolicy) Name() string { return NameSJF }

func (sjfPolicy) Pick(ctx *PickContext) int {
	best := -1
	for i := range ctx.Queue {
		if !ctx.FitsNow(i) {
			continue
		}
		if best < 0 || ctx.Queue[i].Duration < ctx.Queue[best].Duration {
			best = i
		}
	}
	return best
}

// -------------------------------------------------------------- backfill ---

type backfillPolicy struct{}

// Backfill returns conservative EASY backfilling: FIFO order, but when the
// head task does not fit, a younger task may start provided it fits now and
// completes no later than the head's shadow time — the earliest instant the
// head could start given the running set's known end times and scheduled
// resize events. Every borrowed resource is returned by the shadow time,
// so the head is never delayed relative to FIFO. Only the head carries
// that guarantee (classic EASY): tasks deeper in the queue can start later
// than under FIFO, so aggregate metrics like mean response usually improve
// but are not bounded.
func Backfill() Policy { return backfillPolicy{} }

func (backfillPolicy) Name() string { return NameBackfill }

func (backfillPolicy) Pick(ctx *PickContext) int {
	if len(ctx.Queue) == 0 {
		return -1
	}
	if ctx.FitsNow(0) {
		return 0
	}
	shadow := ctx.EarliestStart(0)
	if math.IsInf(shadow, 1) {
		return -1
	}
	for i := 1; i < len(ctx.Queue); i++ {
		if ctx.FitsNow(i) && ctx.Now+ctx.Queue[i].Duration <= shadow {
			return i
		}
	}
	return -1
}

// -------------------------------------------------- cost-aware placement ---

// Cheapest returns FIFO admission with cost-aware class choice: the oldest
// task starts as soon as it fits anywhere (head-of-line blocking, like
// FIFO), but lands on the node class with the lowest predicted dollar cost
// for it — duration/speed × hourly rate — among the classes with room
// right now. Ties resolve to the first class in declaration order. On a
// single-class pool this is exactly FIFO.
func Cheapest() Policy { return cheapestPolicy{} }

type cheapestPolicy struct{}

func (cheapestPolicy) Name() string { return NameCheapest }

func (cheapestPolicy) Pick(ctx *PickContext) int {
	if len(ctx.Queue) == 0 || !ctx.FitsNow(0) {
		return -1
	}
	return 0
}

func (cheapestPolicy) ChooseClass(ctx *PickContext, i int) int {
	best, bestCost := -1, 0.0
	for c := range ctx.Classes {
		if !ctx.ClassFits(i, c) {
			continue
		}
		cost := ctx.ClassCost(i, c)
		if best < 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// PerfPerDollar returns FIFO admission with throughput-per-dollar class
// choice: among the classes with room, the picked task lands on the one
// maximising SpeedFactor/HourlyUSD (a free class — hourly rate 0 — is
// infinitely good and always preferred). Ties resolve to the first class
// in declaration order; single-class pools degrade to FIFO.
func PerfPerDollar() Policy { return perfPerDollarPolicy{} }

type perfPerDollarPolicy struct{}

func (perfPerDollarPolicy) Name() string { return NamePerfPerDollar }

func (perfPerDollarPolicy) Pick(ctx *PickContext) int {
	if len(ctx.Queue) == 0 || !ctx.FitsNow(0) {
		return -1
	}
	return 0
}

func (perfPerDollarPolicy) ChooseClass(ctx *PickContext, i int) int {
	best, bestVal := -1, 0.0
	for c := range ctx.Classes {
		if !ctx.ClassFits(i, c) {
			continue
		}
		cc := ctx.Classes[c]
		val := math.Inf(1)
		if cc.HourlyUSD > 0 {
			val = cc.SpeedFactor / cc.HourlyUSD
		}
		if best < 0 || val > bestVal {
			best, bestVal = c, val
		}
	}
	return best
}

// Compile-time interface checks.
var (
	_ Policy       = fifoPolicy{}
	_ Policy       = sjfPolicy{}
	_ Policy       = backfillPolicy{}
	_ Policy       = cheapestPolicy{}
	_ Policy       = perfPerDollarPolicy{}
	_ ClassChooser = cheapestPolicy{}
	_ ClassChooser = perfPerDollarPolicy{}
)
