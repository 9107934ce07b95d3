package sched

import "testing"

// drain pops every scheduled event in dispatch order.
func drain(e *Engine) []event {
	var out []event
	for len(e.events) > 0 {
		out = append(out, e.events.pop())
	}
	return out
}

// TestSameInstantClassOrder: events of one instant dispatch resizes, then
// completions, then arrivals, each class in scheduling order (an event's
// seq is its scheduling index).
func TestSameInstantClassOrder(t *testing.T) {
	e := New(testPool(t, 1, 8, 16), nil, 0)
	kinds := []eventKind{evArrival, evCompletion, evResize, evCompletion, evArrival, evResize}
	for _, k := range kinds {
		e.schedule(10, event{kind: k})
	}
	want := []uint64{2, 5, 1, 3, 0, 4}
	for i, ev := range drain(e) {
		if ev.seq != want[i] {
			t.Fatalf("dispatch %d is event %d (%v), want event %d", i, ev.seq, ev.kind, want[i])
		}
	}
}

// TestSameClassDispatchesInSchedulingOrder: within one instant and class,
// the heap's answer is scheduling order, however many events tie.
func TestSameClassDispatchesInSchedulingOrder(t *testing.T) {
	e := New(testPool(t, 1, 8, 16), nil, 0)
	for i := 0; i < 64; i++ {
		e.schedule(1, event{kind: evCompletion})
	}
	for i, ev := range drain(e) {
		if ev.seq != uint64(i) {
			t.Fatalf("dispatch %d is event %d, want scheduling order", i, ev.seq)
		}
	}
}

// TestPastArrivalIsClampedToNow: a hook at t=30 submitting a task that
// arrived at t=10 queues it at 30; the clock never runs backwards.
func TestPastArrivalIsClampedToNow(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), nil, 0)
	err := eng.Submit(Task{ID: 0, Sys: sys(8, 8), Duration: 30}, func(Task, TaskStats) {
		if err := eng.Submit(Task{ID: 1, Arrival: 10, Sys: sys(8, 8), Duration: 5}, nil); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()[1]
	if st.Arrival != 10 || st.Start != 30 || st.End != 35 || eng.Now() != 35 {
		t.Fatalf("past arrival: %+v, now %v; want arrival 10, start 30, end 35", st, eng.Now())
	}
}

// TestHookSubmitsIntoTheFuture: a completion hook may schedule work at a
// later instant, and the engine runs it then.
func TestHookSubmitsIntoTheFuture(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), nil, 0)
	err := eng.Submit(Task{ID: 0, Arrival: 1, Sys: sys(4, 4)}, func(Task, TaskStats) {
		if err := eng.Submit(Task{ID: 1, Arrival: eng.Now() + 2, Sys: sys(4, 4)}, nil); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); len(got) != 2 || got[0].End != 1 || got[1].Start != 3 {
		t.Fatalf("nested submit: %+v, want the second task at 3", got)
	}
}

// TestHaltStopsBeforeTheNextEvent: Halt from a hook ends Run with an error
// before any later event dispatches.
func TestHaltStopsBeforeTheNextEvent(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), nil, 0)
	if err := eng.Submit(Task{ID: 0, Sys: sys(4, 4), Duration: 1}, func(Task, TaskStats) { eng.Halt() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(Task{ID: 1, Arrival: 2, Sys: sys(4, 4), Duration: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err == nil {
		t.Fatal("halted run returned nil")
	}
	if len(eng.Stats()) != 1 || eng.Now() != 1 {
		t.Fatalf("after halt: %d completions at t=%v, want 1 at 1", len(eng.Stats()), eng.Now())
	}
}

// TestEventsDispatchInTimeOrder: tasks submitted out of time order run in
// time order, and the clock ends at the last event's instant.
func TestEventsDispatchInTimeOrder(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), nil, 0)
	var order []int
	for _, at := range []float64{3, 1, 2} {
		err := eng.Submit(Task{ID: int(at), Arrival: at, Sys: sys(4, 4)}, func(tk Task, _ TaskStats) {
			order = append(order, tk.ID)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
	if eng.Now() != 3 {
		t.Fatalf("final time = %v, want 3", eng.Now())
	}
}

// TestManyEventsPopInDispatchOrder: 500 events over every kind and many
// shared instants pop in dispatch order, identically on every run.
func TestManyEventsPopInDispatchOrder(t *testing.T) {
	runOnce := func() []event {
		e := New(testPool(t, 1, 8, 16), nil, 0)
		for i := 0; i < 500; i++ {
			e.schedule(float64((i*7919)%101), event{kind: eventKind(i % 3)})
		}
		return drain(e)
	}
	a, b := runOnce(), runOnce()
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("popped %d and %d events, want 500", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && !a[i-1].before(&a[i]) {
			t.Fatalf("dispatch %d (%+v) precedes %+v", i, a[i], a[i-1])
		}
	}
}
