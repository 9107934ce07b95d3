package sched

import (
	"fmt"
	"math"
)

// Policy names accepted by ByName (and re-exported by the pipetune facade).
const (
	NameFIFO     = "fifo"
	NameSJF      = "sjf"
	NameBackfill = "backfill"
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
	// immediately (on some node).
	FitsNow func(i int) bool
	// EarliestStart returns the earliest time Queue[i] could start if no
	// further tasks were admitted, replaying the running set's scheduled
	// resizes and completions. It returns +Inf only if the task could
	// never fit (which Submit already rejects).
	EarliestStart func(i int) float64
}

// Policy selects the next queued task to place on the cluster.
// Implementations must be deterministic: identical contexts must yield
// identical picks, since the whole simulation's reproducibility rests on it.
type Policy interface {
	Name() string
	Pick(ctx *PickContext) int
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
	default:
		return nil, fmt.Errorf("sched: unknown policy %q (want %s, %s or %s)",
			name, NameFIFO, NameSJF, NameBackfill)
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

// Compile-time interface checks.
var (
	_ Policy = fifoPolicy{}
	_ Policy = sjfPolicy{}
	_ Policy = backfillPolicy{}
)
