// Package sched is the discrete-event trial scheduler every execution path
// shares: the hyperparameter tuner (package tune) places trials through it,
// and the multi-tenancy experiments queue whole HPT jobs through it
// (Simulate is the §7.4 queueing model).
//
// The engine owns its clock and its event queue. Every engine has a Pool
// and every task a footprint on it. Tasks arrive at a simulated instant,
// wait in first-come-first-served order — the paper's §5.1 order, as in
// Ray Tune: the queue's head starts once its footprint fits a node of the
// pool and a slot under the engine's cap is free, and nothing overtakes
// it — execute for their known simulated duration, and complete — at
// which point
// the caller's completion hook fires *immediately*, in simulated completion
// order. That hook is what makes the surrounding search incremental: the
// tuner reports each trial to the searcher the moment it finishes instead
// of at a batch barrier.
//
// Running tasks may re-negotiate their footprint mid-flight (Resize events)
// — the scheduler-level model of the paper's §5.6 dynamic reconfiguration:
// when PipeTune settles on a new system configuration at an epoch boundary,
// the trial's allocation shrinks or grows at that simulated instant, and
// the freed (or newly claimed) capacity immediately affects which waiting
// tasks can start. A growth that no longer fits is denied deterministically
// and the task keeps its previous reservation. Denial is an allocation-
// state model only: a task's Duration is fixed at submit time (the trainer
// prices the trial assuming its reconfigurations take effect), so a denied
// growth does not slow the task down — it under-counts contention in the
// saturated regime, a deliberate trade for precomputed, deterministic
// durations. ResizesDenied in TaskStats makes the approximation visible.
//
// Everything is single-threaded and deterministic: identical task sets
// and pools produce identical schedules, with same-instant events
// ordered resizes, completions, then arrivals (see eventKind). A placed
// task runs to completion on the node that admitted it.
package sched

import (
	"errors"
	"fmt"

	"pipetune/internal/params"
)

// ErrNeverFits is returned by Submit when a task's footprint exceeds every
// node of the pool — it could not start even on an idle cluster.
var ErrNeverFits = errors.New("sched: footprint can never fit the pool")

// errHalted is Run's answer after Halt.
var errHalted = errors.New("sched: engine halted")

// Resize is a mid-task footprint change at a fixed offset from task start.
type Resize struct {
	Offset float64          `json:"offset"` // seconds after the task starts
	Sys    params.SysConfig `json:"sys"`
}

// Task is one schedulable unit of simulated work. Its Sys footprint — at
// least one core and one GB — is reserved on one node of the pool while it
// runs (Simulate gives each whole job a one-core, one-GB footprint).
type Task struct {
	ID       int
	Arrival  float64
	Sys      params.SysConfig
	Duration float64
	Resizes  []Resize
}

// TaskStats is one task's scheduling outcome.
type TaskStats struct {
	ID             int     `json:"id"`
	Arrival        float64 `json:"arrival"`
	Start          float64 `json:"start"`
	End            float64 `json:"end"`
	Wait           float64 `json:"wait"`     // Start - Arrival
	Response       float64 `json:"response"` // End - Arrival
	Node           int     `json:"node"`     // hosting node
	ResizesGranted int     `json:"resizesGranted"`
	ResizesDenied  int     `json:"resizesDenied"`
}

// queued is a task waiting for admission.
type queued struct {
	task   Task
	onDone func(Task, TaskStats)
}

// runningTask is one admitted task, occupying resources until its end
// time. Its resize and completion events point at it.
type runningTask struct {
	task    Task
	onDone  func(Task, TaskStats)
	start   float64
	end     float64
	node    int              // hosting node
	sys     params.SysConfig // current (possibly resized) footprint
	granted int
	denied  int
}

// eventKind is an event's type and its same-instant class: resizes free
// or claim capacity first, completions release next, and arrivals observe
// the settled state last. Within one instant and class, events dispatch in
// scheduling order.
type eventKind uint8

const (
	evResize eventKind = iota
	evCompletion
	evArrival
)

// event is one scheduled state change; each kind sets only the fields its
// handler reads.
type event struct {
	at   float64
	seq  uint64 // scheduling order
	kind eventKind
	rt   *runningTask     // resize, completion
	sys  params.SysConfig // resize: the new footprint
	q    *queued          // arrival
}

// before is the dispatch order: time, then class, then scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events in dispatch order.
type eventQueue []event

func (h *eventQueue) push(ev event) {
	q := append(*h, ev)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventQueue) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Engine is the event-driven scheduler. It is not safe for concurrent use:
// Submit may be called before Run or from within completion hooks.
type Engine struct {
	pool    *Pool
	slots   int // max concurrent tasks; 0 = bounded by the pool alone
	now     float64
	events  eventQueue
	nextSeq uint64 // events scheduled so far
	queue   []*queued
	running map[int]*runningTask
	done    []TaskStats
	halted  bool
	err     error // first internal failure; surfaced by Run
}

// New creates an engine over a pool (non-nil: every task is placed on it)
// with an admission slot cap (0 = unbounded, the pool's capacity is then
// the only brake). The Policy argument is ignored (see Policy).
func New(pool *Pool, _ Policy, slots int) *Engine {
	return &Engine{
		pool:    pool,
		slots:   slots,
		running: make(map[int]*runningTask),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// schedule queues ev at instant at; an instant in the past is now.
func (e *Engine) schedule(at float64, ev event) {
	ev.at = max(at, e.now)
	ev.seq = e.nextSeq
	e.nextSeq++
	e.events.push(ev)
}

// Halt stops the simulation before the next event; Run then returns an
// error. Callers use it to abort from a completion hook.
func (e *Engine) Halt() { e.halted = true }

// Submit registers a task. Its arrival event fires at max(Arrival, Now);
// onDone (optional) fires at the task's simulated completion, before any
// same-instant arrivals are processed. A footprint below one core or one GB
// is rejected (it would fit a full node without occupying it), and one that
// cannot fit an idle pool is rejected with ErrNeverFits — the caller finds
// out at submit time, not after the queue deadlocks.
func (e *Engine) Submit(t Task, onDone func(Task, TaskStats)) error {
	if t.Duration < 0 || t.Arrival < 0 {
		return fmt.Errorf("sched: task %d has negative time", t.ID)
	}
	if t.Sys.Cores < 1 || t.Sys.MemoryGB < 1 {
		return fmt.Errorf("sched: task %d footprint %v is below one core and one GB", t.ID, t.Sys)
	}
	if !e.pool.canEverFit(t.Sys) {
		return fmt.Errorf("sched: task %d footprint %v: %w", t.ID, t.Sys, ErrNeverFits)
	}
	for _, rz := range t.Resizes {
		if !e.pool.canEverFit(rz.Sys) {
			return fmt.Errorf("sched: task %d resize to %v: %w", t.ID, rz.Sys, ErrNeverFits)
		}
	}
	e.schedule(t.Arrival, event{kind: evArrival, q: &queued{task: t, onDone: onDone}})
	return nil
}

// Run dispatches events until the queue drains or Halt is called. It
// returns the engine's internal error if one occurred, or an error if
// Halt was called. No task is left waiting: Submit rejects a footprint an
// idle pool cannot hold, so the queue's head always starts once the
// running set drains.
func (e *Engine) Run() error {
	for !e.halted && len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.at
		switch ev.kind {
		case evArrival:
			e.queue = append(e.queue, ev.q)
			e.dispatch()
		case evResize:
			e.resize(ev.rt, ev.sys)
		case evCompletion:
			e.complete(ev.rt)
		}
	}
	if e.err != nil {
		return e.err
	}
	if e.halted {
		return errHalted
	}
	return nil
}

// Stats returns the completed tasks' statistics in completion order.
func (e *Engine) Stats() []TaskStats { return e.done }

// dispatch starts the queue's head while a slot is free and its
// footprint fits: the first-fit node is reserved and its resize and
// completion events are scheduled.
func (e *Engine) dispatch() {
	for !e.halted && len(e.queue) > 0 && (e.slots <= 0 || len(e.running) < e.slots) {
		q := e.queue[0]
		t := q.task
		node := e.pool.place(t.Sys)
		if node < 0 {
			return
		}
		e.queue[0] = nil
		e.queue = e.queue[1:]
		now := e.now
		rt := &runningTask{
			task: t, onDone: q.onDone,
			start: now, end: now + t.Duration,
			node: node, sys: t.Sys,
		}
		e.running[t.ID] = rt
		for _, rz := range t.Resizes {
			if rz.Offset <= 0 || rz.Offset >= t.Duration {
				continue // outside the task's lifetime: nothing to re-negotiate
			}
			e.schedule(now+rz.Offset, event{kind: evResize, rt: rt, sys: rz.Sys})
		}
		e.schedule(rt.end, event{kind: evCompletion, rt: rt})
	}
}

// fail records the first internal error and halts the simulation.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.Halt()
}

// resize re-negotiates a running task's reservation through the pool's
// reserve step; a denied growth keeps the previous footprint.
func (e *Engine) resize(rt *runningTask, to params.SysConfig) {
	if rt.sys == to {
		return
	}
	n, granted := e.pool.reserve(rt.node, rt.sys, to)
	switch {
	case granted:
		rt.node, rt.sys = n, to
		rt.granted++
	case n < 0:
		e.fail(fmt.Errorf("sched: task %d lost its reservation %v on node %d during a denied resize",
			rt.task.ID, rt.sys, rt.node)) // unreachable unless the pool is corrupted
		return
	default:
		rt.denied++
	}
	// A shrink may have freed capacity a waiting task can use.
	e.dispatch()
}

// complete releases the task's resources, records its stats, fires the
// caller's hook and re-runs admission.
func (e *Engine) complete(rt *runningTask) {
	delete(e.running, rt.task.ID)
	e.pool.free(rt.node, rt.sys)
	st := TaskStats{
		ID:             rt.task.ID,
		Arrival:        rt.task.Arrival,
		Start:          rt.start,
		End:            rt.end,
		Wait:           rt.start - rt.task.Arrival,
		Response:       rt.end - rt.task.Arrival,
		Node:           rt.node,
		ResizesGranted: rt.granted,
		ResizesDenied:  rt.denied,
	}
	e.done = append(e.done, st)
	if rt.onDone != nil {
		rt.onDone(rt.task, st)
	}
	e.dispatch()
}

// Simulate runs a fixed set of whole jobs through the engine with `slots`
// parallel servers, returning per-task statistics in input order: the
// multi-tenancy queueing simulations. Each server is a one-core, one-GB
// node and each job a one-core, one-GB footprint on it; jobs carry no
// footprint of their own (one is rejected), and negative arrival or
// duration times are rejected at submit. The slot cap equals the server
// count.
func Simulate(tasks []Task, slots int) ([]TaskStats, error) {
	if slots < 1 {
		return nil, fmt.Errorf("sched: %d slots invalid", slots)
	}
	unit := NodeCap{Cores: 1, MemoryGB: 1}
	caps := make([]NodeCap, slots)
	for i := range caps {
		caps[i] = unit
	}
	pool, err := NewPool(caps)
	if err != nil {
		return nil, err
	}
	eng := New(pool, nil, slots)
	out := make([]TaskStats, len(tasks))
	for i, t := range tasks {
		i := i
		if t.Sys != (params.SysConfig{}) {
			return nil, fmt.Errorf("sched: Simulate job %d carries footprint %v; each job occupies one server", t.ID, t.Sys)
		}
		t.Sys = params.SysConfig{Cores: unit.Cores, MemoryGB: unit.MemoryGB}
		if err := eng.Submit(t, func(_ Task, st TaskStats) { out[i] = st }); err != nil {
			return nil, err
		}
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return out, nil
}
