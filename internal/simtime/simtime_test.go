package simtime

import (
	"testing"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Set(7.5)
	if c.Now() != 7.5 {
		t.Fatalf("clock = %v, want 7.5", c.Now())
	}
	c.Set(4)
	if c.Now() != 7.5 {
		t.Fatalf("Set into the past moved clock to %v", c.Now())
	}
	c.Set(10)
	if c.Now() != 10 {
		t.Fatalf("Set = %v, want 10", c.Now())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAtPrio(3, 0, func() { order = append(order, 3) })
	e.ScheduleAtPrio(1, 0, func() { order = append(order, 1) })
	e.ScheduleAtPrio(2, 0, func() { order = append(order, 2) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v, want 3", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleAtPrio(1, 0, func() { order = append(order, "a") })
	e.ScheduleAtPrio(1, 0, func() { order = append(order, "b") })
	e.ScheduleAtPrio(1, 0, func() { order = append(order, "c") })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie-break order = %q, want abc", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.ScheduleAtPrio(1, 0, func() {
		times = append(times, e.Now())
		e.ScheduleAtPrio(e.Now()+2, 0, func() { times = append(times, e.Now()) })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested times = %v, want [1 3]", times)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleAtPrio(1, 0, func() { fired++ })
	e.ScheduleAtPrio(10, 0, func() { fired++ })
	if err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d events before horizon, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock after horizon = %v, want 5", e.Now())
	}
	if len(e.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(e.queue))
	}
	// Resuming past the horizon dispatches the rest.
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || e.Now() != 10 {
		t.Fatalf("after resume fired=%d now=%v", fired, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleAtPrio(1, 0, func() {
		fired++
		e.Stop()
	})
	e.ScheduleAtPrio(2, 0, func() { fired++ })
	if err := e.RunAll(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.ScheduleAtPrio(3, 0, func() {
		e.ScheduleAtPrio(1, 0, func() { at = e.Now() })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("past-scheduled event ran at %v, want 3", at)
	}
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		var out []float64
		for i := 0; i < 500; i++ {
			d := float64((i * 7919) % 101)
			e.ScheduleAtPrio(d, 0, func() { out = append(out, e.Now()) })
		}
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("time went backwards: %v after %v", a[i], a[i-1])
		}
	}
}

func TestScheduleAtPrioOrdersSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleAtPrio(10, 0, func() { order = append(order, "arrival") })
	e.ScheduleAtPrio(10, -1, func() { order = append(order, "completion") })
	e.ScheduleAtPrio(10, -2, func() { order = append(order, "resize") })
	e.ScheduleAtPrio(10, -1, func() { order = append(order, "completion2") })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"resize", "completion", "completion2", "arrival"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("same-instant order %v, want %v", order, want)
		}
	}
}
