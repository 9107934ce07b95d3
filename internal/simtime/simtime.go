// Package simtime provides the virtual clock and discrete-event engine that
// every experiment runs on. The paper reports wall-clock seconds measured on
// a physical cluster; this reproduction replaces the host clock with
// simulated seconds so that experiments are fast, deterministic and
// independent of the machine running them.
//
// The Engine is a classic event-queue simulator: callbacks scheduled at
// absolute virtual times execute in time order, with FIFO tie-breaking so
// runs are reproducible.
package simtime

import (
	"container/heap"
	"errors"
)

// ErrStopped is returned by Run when the engine was stopped explicitly
// before the event queue drained.
var ErrStopped = errors.New("simtime: engine stopped")

// Clock tracks virtual time in seconds. The zero value starts at t=0.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Set jumps the clock to t if t is in the future.
func (c *Clock) Set(t float64) {
	if t > c.now {
		c.now = t
	}
}

// event is one scheduled callback.
type event struct {
	at   float64
	prio int    // same-instant ordering class; lower dispatches first
	seq  uint64 // insertion order, breaks remaining ties deterministically
	fn   func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all scheduling must happen from the goroutine calling Run
// (typically from within event callbacks).
type Engine struct {
	clock   Clock
	queue   eventQueue
	nextSeq uint64
	stopped bool
}

// NewEngine returns an engine with virtual time at 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.clock.Now() }

// ScheduleAtPrio queues fn at absolute virtual time t within an ordering
// class: when several events share an instant, lower prio dispatches first
// (FIFO within a class). Queueing simulators use this to process departures
// (prio < 0, freeing resources) before same-instant arrivals (prio 0), the
// convention that keeps admission decisions independent of insertion order.
// Times in the past are clamped to the current time.
func (e *Engine) ScheduleAtPrio(t float64, prio int, fn func()) {
	if t < e.clock.Now() {
		t = e.clock.Now()
	}
	ev := &event{at: t, prio: prio, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// Stop makes Run return ErrStopped before dispatching the next event.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in time order until the queue is empty or until
// virtual time would exceed until (pass a negative value for no horizon).
// It returns ErrStopped if Stop was called, otherwise nil.
func (e *Engine) Run(until float64) error {
	e.stopped = false
	for len(e.queue) > 0 {
		if e.stopped {
			return ErrStopped
		}
		next := e.queue[0]
		if until >= 0 && next.at > until {
			e.clock.Set(until)
			return nil
		}
		heap.Pop(&e.queue)
		e.clock.Set(next.at)
		next.fn()
	}
	return nil
}

// RunAll dispatches every queued event with no time horizon.
func (e *Engine) RunAll() error { return e.Run(-1) }
