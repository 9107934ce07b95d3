package sched

import (
	"errors"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

// testPool builds a pool of identical nodes.
func testPool(t *testing.T, nodes, cores, mem int) *Pool {
	t.Helper()
	caps := make([]NodeCap, nodes)
	for i := range caps {
		caps[i] = NodeCap{Cores: cores, MemoryGB: mem}
	}
	p, err := NewPool(caps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// run drives a task set to completion and returns stats keyed by task ID.
func run(t *testing.T, eng *Engine, tasks []Task) map[int]TaskStats {
	t.Helper()
	for _, task := range tasks {
		if err := eng.Submit(task, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := make(map[int]TaskStats, len(eng.Stats()))
	for _, st := range eng.Stats() {
		out[st.ID] = st
	}
	return out
}

func sys(cores, mem int) params.SysConfig { return params.SysConfig{Cores: cores, MemoryGB: mem} }

func TestFIFOFullyParallelWhenFits(t *testing.T) {
	eng := New(testPool(t, 2, 16, 32), nil, 8)
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{ID: i, Sys: sys(8, 8), Duration: 100})
	}
	stats := run(t, eng, tasks)
	for id, st := range stats {
		if st.Start != 0 || st.End != 100 {
			t.Fatalf("task %d not fully parallel: start %v end %v", id, st.Start, st.End)
		}
	}
	if eng.Now() != 100 {
		t.Fatalf("makespan %v, want 100", eng.Now())
	}
}

func TestFIFOOversizedTasksSerialise(t *testing.T) {
	eng := New(testPool(t, 1, 16, 32), nil, 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(16, 16), Duration: 100},
		{ID: 1, Sys: sys(16, 16), Duration: 100},
	})
	if stats[1].Start != 100 || eng.Now() != 200 {
		t.Fatalf("two full-node tasks: second start %v makespan %v, want 100/200",
			stats[1].Start, eng.Now())
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	// FIFO must not let the small task overtake the blocked big one.
	eng := New(testPool(t, 1, 16, 32), nil, 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(16, 16), Duration: 50},
		{ID: 1, Sys: sys(16, 16), Duration: 60},
		{ID: 2, Sys: sys(2, 2), Duration: 10},
	})
	if stats[2].Start != 110 {
		t.Fatalf("small task overtook FIFO head: start %v, want 110", stats[2].Start)
	}
}

// TestPickTieBreakTables pins FIFO admission on small queues: the head
// starts first even when a shorter task waits behind it, a blocked head
// holds back a younger task that would fit, and an empty queue runs
// nothing.
func TestPickTieBreakTables(t *testing.T) {
	cases := []struct {
		name   string
		slots  int
		tasks  []Task
		starts []float64 // by task ID
	}{
		{"fifo/head-fits", 1, []Task{
			{ID: 0, Sys: sys(4, 4), Duration: 10},
			{ID: 1, Arrival: 1, Sys: sys(4, 4), Duration: 50},
			{ID: 2, Arrival: 2, Sys: sys(4, 4), Duration: 10},
		}, []float64{0, 10, 60}},
		{"fifo/head-blocked-blocks-all", 0, []Task{
			{ID: 0, Sys: sys(12, 8), Duration: 100},
			{ID: 1, Arrival: 1, Sys: sys(16, 16), Duration: 50},
			{ID: 2, Arrival: 2, Sys: sys(4, 4), Duration: 10},
		}, []float64{0, 100, 150}},
		{"fifo/empty-queue", 0, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(testPool(t, 1, 16, 32), nil, tc.slots)
			stats := run(t, eng, tc.tasks)
			if len(stats) != len(tc.starts) {
				t.Fatalf("%d tasks ran, want %d", len(stats), len(tc.starts))
			}
			for id, want := range tc.starts {
				if got := stats[id].Start; got != want {
					t.Fatalf("task %d started at %v, want %v", id, got, want)
				}
			}
		})
	}
}

func TestSlotCapRespected(t *testing.T) {
	eng := New(testPool(t, 4, 32, 64), nil, 1)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(4, 4), Duration: 10},
		{ID: 1, Sys: sys(4, 4), Duration: 10},
		{ID: 2, Sys: sys(4, 4), Duration: 10},
	})
	if eng.Now() != 30 {
		t.Fatalf("single-slot makespan %v, want 30", eng.Now())
	}
	if stats[1].Start != 10 || stats[2].Start != 20 {
		t.Fatalf("not serial: %v, %v", stats[1].Start, stats[2].Start)
	}
}

func TestZeroFootprintRejectedAtSubmit(t *testing.T) {
	// A footprint below one core or one GB would fit a full node without
	// occupying it.
	eng := New(testPool(t, 1, 8, 16), nil, 4)
	for _, fp := range []params.SysConfig{{}, sys(0, 4), sys(4, 0)} {
		if err := eng.Submit(Task{ID: 0, Sys: fp, Duration: 10}, nil); err == nil {
			t.Fatalf("footprint %v accepted", fp)
		}
	}
}

func TestNeverFitsRejectedAtSubmit(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), nil, 4)
	err := eng.Submit(Task{ID: 0, Sys: sys(16, 8), Duration: 10}, nil)
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("oversize footprint accepted: %v", err)
	}
	// A resize target that can never fit is just as fatal.
	err = eng.Submit(Task{ID: 1, Sys: sys(4, 4), Duration: 10,
		Resizes: []Resize{{Offset: 5, Sys: sys(32, 8)}}}, nil)
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("oversize resize accepted: %v", err)
	}
}

func TestArrivalsQueueFIFO(t *testing.T) {
	eng := New(testPool(t, 1, 16, 32), nil, 1)
	stats := run(t, eng, []Task{
		{ID: 0, Arrival: 0, Sys: sys(4, 4), Duration: 100},
		{ID: 1, Arrival: 10, Sys: sys(4, 4), Duration: 10},
		{ID: 2, Arrival: 5, Sys: sys(4, 4), Duration: 10},
	})
	if stats[2].Start != 100 || stats[1].Start != 110 {
		t.Fatalf("arrival order not respected: %v, %v", stats[2].Start, stats[1].Start)
	}
	if stats[1].Wait != 100 || stats[1].Response != 110 {
		t.Fatalf("wait/response wrong: %+v", stats[1])
	}
}

func TestShrinkResizeAdmitsWaiter(t *testing.T) {
	// Task 0 shrinks from a full node to a quarter at t=40; task 1 (half a
	// node) must start exactly then, not at task 0's end.
	eng := New(testPool(t, 1, 16, 32), nil, 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(16, 32), Duration: 100, Resizes: []Resize{{Offset: 40, Sys: sys(4, 8)}}},
		{ID: 1, Sys: sys(8, 16), Duration: 10},
	})
	if stats[0].ResizesGranted != 1 || stats[0].ResizesDenied != 0 {
		t.Fatalf("shrink not granted: %+v", stats[0])
	}
	if stats[1].Start != 40 {
		t.Fatalf("waiter started at %v, want 40 (at the shrink)", stats[1].Start)
	}
}

func TestGrowthResizeDeniedUnderContention(t *testing.T) {
	// Two half-node tasks fill the node; task 0's attempt to grow to the
	// full node must be denied and the task keeps its reservation.
	eng := New(testPool(t, 1, 16, 32), nil, 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(8, 16), Duration: 100, Resizes: []Resize{{Offset: 10, Sys: sys(16, 32)}}},
		{ID: 1, Sys: sys(8, 16), Duration: 100},
	})
	if stats[0].ResizesDenied != 1 || stats[0].ResizesGranted != 0 {
		t.Fatalf("growth under contention: %+v", stats[0])
	}
	if stats[1].End != 100 {
		t.Fatalf("bystander disturbed: %+v", stats[1])
	}
}

func TestGrowthResizeGrantedWhenFree(t *testing.T) {
	eng := New(testPool(t, 1, 16, 32), nil, 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(4, 8), Duration: 100, Resizes: []Resize{{Offset: 10, Sys: sys(16, 32)}}},
	})
	if stats[0].ResizesGranted != 1 {
		t.Fatalf("growth on an idle node denied: %+v", stats[0])
	}
}

// poissonTasks builds a heavy-tailed Poisson arrival stream.
func poissonTasks(seed uint64, n int, meanGap float64) []Task {
	r := xrand.New(seed)
	tasks := make([]Task, n)
	at := 0.0
	for i := range tasks {
		at += r.ExpFloat64() * meanGap
		dur := 20 + r.Float64()*30
		if i%5 == 0 {
			dur *= 10 // heavy tail: every fifth job is long
		}
		tasks[i] = Task{ID: i, Arrival: at, Duration: dur}
	}
	return tasks
}

func TestEngineDeterministic(t *testing.T) {
	runOnce := func() []TaskStats {
		stats, err := Simulate(poissonTasks(3, 50, 20), 3)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSimulateFIFOTwoServers: jobs arriving together take the free servers
// in submission order; the next waits for the first to end.
func TestSimulateFIFOTwoServers(t *testing.T) {
	stats, err := Simulate([]Task{
		{ID: 1, Duration: 10},
		{ID: 2, Duration: 10},
		{ID: 3, Duration: 10},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Wait != 0 || stats[1].Wait != 0 || stats[2].Wait != 10 || stats[2].Response != 20 {
		t.Fatalf("two servers: %+v", stats)
	}
}

// TestSimulateFIFOPreservesArrivalOrder: service follows arrival order
// while the stats come back in input order.
func TestSimulateFIFOPreservesArrivalOrder(t *testing.T) {
	stats, err := Simulate([]Task{
		{ID: 1, Arrival: 5, Duration: 1},
		{ID: 2, Arrival: 0, Duration: 10},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].ID != 1 || stats[0].Start != 10 || stats[1].ID != 2 || stats[1].Start != 0 {
		t.Fatalf("later arrival must start after the earlier one, stats in input order: %+v", stats)
	}
}

// TestSimulateFIFOValidation: the FIFO engine rejects a cluster without
// servers and tasks with negative times.
func TestSimulateFIFOValidation(t *testing.T) {
	if _, err := Simulate([]Task{{ID: 1, Duration: 1}}, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: -1}}, 1); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Arrival: -1, Duration: 1}}, 1); err == nil {
		t.Fatal("negative arrival accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate([]Task{{ID: 1, Duration: 1}}, 0); err == nil {
		t.Fatal("0 slots accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: -1}}, 1); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: 1, Sys: sys(4, 4)}}, 1); err == nil {
		t.Fatal("job with its own footprint accepted by Simulate")
	}
}
