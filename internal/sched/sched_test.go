package sched

import (
	"errors"
	"math"
	"strconv"
	"strings"
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
	eng := New(testPool(t, 2, 16, 32), FIFO(), 8)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 8)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(16, 16), Duration: 50},
		{ID: 1, Sys: sys(16, 16), Duration: 60},
		{ID: 2, Sys: sys(2, 2), Duration: 10},
	})
	if stats[2].Start != 110 {
		t.Fatalf("small task overtook FIFO head: start %v, want 110", stats[2].Start)
	}
}

func TestSlotCapRespected(t *testing.T) {
	eng := New(testPool(t, 4, 32, 64), FIFO(), 1)
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
	eng := New(testPool(t, 1, 8, 16), FIFO(), 4)
	for _, fp := range []params.SysConfig{{}, sys(0, 4), sys(4, 0)} {
		if err := eng.Submit(Task{ID: 0, Sys: fp, Duration: 10}, nil); err == nil {
			t.Fatalf("footprint %v accepted", fp)
		}
	}
}

func TestNeverFitsRejectedAtSubmit(t *testing.T) {
	eng := New(testPool(t, 1, 8, 16), FIFO(), 4)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 1)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 8)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 8)
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
	eng := New(testPool(t, 1, 16, 32), FIFO(), 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(4, 8), Duration: 100, Resizes: []Resize{{Offset: 10, Sys: sys(16, 32)}}},
	})
	if stats[0].ResizesGranted != 1 {
		t.Fatalf("growth on an idle node denied: %+v", stats[0])
	}
}

func TestSJFPicksShortestThatFits(t *testing.T) {
	// One slot: after the first task, SJF runs 3 (shortest), then 2, then 1.
	eng := New(testPool(t, 1, 16, 32), SJF(), 1)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(4, 4), Duration: 50},
		{ID: 1, Sys: sys(4, 4), Duration: 30},
		{ID: 2, Sys: sys(4, 4), Duration: 20},
		{ID: 3, Sys: sys(4, 4), Duration: 10},
	})
	if stats[3].Start != 50 || stats[2].Start != 60 || stats[1].Start != 80 {
		t.Fatalf("SJF order wrong: %v %v %v", stats[3].Start, stats[2].Start, stats[1].Start)
	}
}

func TestBackfillFillsHoleWithoutDelayingHead(t *testing.T) {
	// Node 16 cores. Task 0 takes 12 cores until t=100. Head of queue
	// (task 1) needs 16 cores → shadow = 100. Task 2 (4 cores, 50 s) fits
	// in the hole and ends at 50 ≤ 100, so it backfills; task 3 (4 cores,
	// 200 s) would overrun the shadow and must not.
	eng := New(testPool(t, 1, 16, 32), Backfill(), 8)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(12, 8), Duration: 100},
		{ID: 1, Sys: sys(16, 16), Duration: 10},
		{ID: 2, Sys: sys(4, 4), Duration: 50},
		{ID: 3, Sys: sys(4, 4), Duration: 200},
	})
	if stats[2].Start != 0 {
		t.Fatalf("backfill candidate idled: start %v, want 0", stats[2].Start)
	}
	if stats[1].Start != 100 {
		t.Fatalf("head delayed by backfill: start %v, want 100", stats[1].Start)
	}
	if stats[3].Start < 100 {
		t.Fatalf("shadow-overrunning task backfilled at %v", stats[3].Start)
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

func meanResponse(stats []TaskStats) float64 {
	sum := 0.0
	for _, s := range stats {
		sum += s.Response
	}
	return sum / float64(len(stats))
}

func TestPolicyComparisonOnPoissonStream(t *testing.T) {
	// On a contended stream with heavy-tailed service times, SJF must beat
	// FIFO on mean response; every policy serves every job.
	tasks := poissonTasks(7, 60, 25)
	byPolicy := map[string]float64{}
	for _, p := range []Policy{FIFO(), SJF(), Backfill()} {
		stats, err := Simulate(tasks, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != len(tasks) {
			t.Fatalf("%s served %d/%d jobs", p.Name(), len(stats), len(tasks))
		}
		for i, st := range stats {
			if st.End <= 0 {
				t.Fatalf("%s: job %d never finished", p.Name(), i)
			}
		}
		byPolicy[p.Name()] = meanResponse(stats)
	}
	if byPolicy[NameSJF] >= byPolicy[NameFIFO] {
		t.Fatalf("SJF mean response %.1f not below FIFO %.1f",
			byPolicy[NameSJF], byPolicy[NameFIFO])
	}
	// One-server-per-job streams give backfill no hole to fill: it must
	// degrade to exactly FIFO.
	if byPolicy[NameBackfill] != byPolicy[NameFIFO] {
		t.Fatalf("unit-footprint backfill %.1f diverged from FIFO %.1f",
			byPolicy[NameBackfill], byPolicy[NameFIFO])
	}
}

func TestBackfillBeatsFIFOWithFootprints(t *testing.T) {
	// One 16-core node. A 12-core task holds it while a full-node task
	// blocks the FIFO head; the 4-core tasks behind fit the hole and end
	// before the head's shadow time, so backfill runs them early while
	// FIFO makes them queue — strictly better mean response, same head
	// start time.
	tasks := []Task{
		{ID: 0, Arrival: 0, Sys: sys(12, 8), Duration: 100},
		{ID: 1, Arrival: 1, Sys: sys(16, 16), Duration: 10},
		{ID: 2, Arrival: 2, Sys: sys(4, 4), Duration: 20},
		{ID: 3, Arrival: 3, Sys: sys(4, 4), Duration: 20},
		{ID: 4, Arrival: 4, Sys: sys(4, 4), Duration: 20},
	}
	mean := func(p Policy) (float64, map[int]TaskStats) {
		eng := New(testPool(t, 1, 16, 32), p, 0)
		st := run(t, eng, tasks)
		return meanResponse(eng.Stats()), st
	}
	fifo, _ := mean(FIFO())
	backfill, st := mean(Backfill())
	if backfill >= fifo {
		t.Fatalf("backfill mean response %.1f not below FIFO %.1f", backfill, fifo)
	}
	if st[1].Start != 100 {
		t.Fatalf("backfill delayed the blocked head: start %v, want 100", st[1].Start)
	}
	if st[2].Start != 2 {
		t.Fatalf("first backfill candidate queued: start %v, want 2", st[2].Start)
	}
}

func TestEngineDeterministic(t *testing.T) {
	for _, p := range []Policy{FIFO(), SJF(), Backfill()} {
		runOnce := func() []TaskStats {
			stats, err := Simulate(poissonTasks(3, 50, 20), 3, p)
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		a, b := runOnce(), runOnce()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: run diverged at job %d: %+v vs %+v", p.Name(), i, a[i], b[i])
			}
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
	}, 2, FIFO())
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
	}, 1, FIFO())
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
	if _, err := Simulate([]Task{{ID: 1, Duration: 1}}, 0, FIFO()); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: -1}}, 1, FIFO()); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Arrival: -1, Duration: 1}}, 1, FIFO()); err == nil {
		t.Fatal("negative arrival accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate([]Task{{ID: 1, Duration: 1}}, 0, nil); err == nil {
		t.Fatal("0 slots accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: -1}}, 1, nil); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := Simulate([]Task{{ID: 1, Duration: 1, Sys: sys(4, 4)}}, 1, nil); err == nil {
		t.Fatal("job with its own footprint accepted by Simulate")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{NameFIFO, NameSJF, NameBackfill} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	// An unknown name is refused, and the error lists the three policies.
	for _, name := range []string{"lifo", "cheapest", "perf-per-dollar"} {
		_, err := ByName(name)
		if err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
		for _, want := range []string{NameFIFO, NameSJF, NameBackfill} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("ByName(%q) error %q does not name %s", name, err, want)
			}
		}
	}
}

func TestEarliestStartInf(t *testing.T) {
	// Defensive: EarliestStart on an impossible footprint is +Inf (Submit
	// rejects these, so construct the context by hand).
	eng := New(testPool(t, 1, 8, 16), FIFO(), 4)
	eng.queue = append(eng.queue, &queued{task: Task{ID: 0, Sys: sys(32, 8), Duration: 1}})
	if got := eng.earliestStart(0); !math.IsInf(got, 1) {
		t.Fatalf("earliestStart = %v, want +Inf", got)
	}
}

func TestBackfillShadowAccountsForPendingShrink(t *testing.T) {
	// One 16-core node. Task 0 (12 cores) runs to t=100 but shrinks to 4
	// cores at t=40, so the 12-core head (task 1) truly starts at t=40 —
	// the shadow must be 40, not 100. Candidate 2 (4 cores, 80 s) would
	// end at 82 > 40: backfilling it would delay the head to 82, so it
	// must wait. Candidate 3 (4 cores, 30 s) ends at 33 <= 40 and may
	// backfill. The head then starts exactly at the shrink.
	eng := New(testPool(t, 1, 16, 32), Backfill(), 8)
	stats := run(t, eng, []Task{
		{ID: 0, Arrival: 0, Sys: sys(12, 8), Duration: 100,
			Resizes: []Resize{{Offset: 40, Sys: sys(4, 4)}}},
		{ID: 1, Arrival: 1, Sys: sys(12, 8), Duration: 10},
		{ID: 2, Arrival: 2, Sys: sys(4, 4), Duration: 80},
		{ID: 3, Arrival: 3, Sys: sys(4, 4), Duration: 30},
	})
	if stats[1].Start != 40 {
		t.Fatalf("head start %v, want 40 (at the shrink); shadow ignored the pending resize",
			stats[1].Start)
	}
	if stats[3].Start != 3 {
		t.Fatalf("short candidate did not backfill: start %v, want 3", stats[3].Start)
	}
	if stats[2].Start < 40 {
		t.Fatalf("long candidate backfilled at %v and delayed the head", stats[2].Start)
	}
}

func TestPolicyBugSurfacesError(t *testing.T) {
	// A custom policy that picks a non-fitting task must produce a
	// descriptive error from Run, not a silent halt.
	eng := New(testPool(t, 1, 8, 16), pickLastPolicy{}, 8)
	if err := eng.Submit(Task{ID: 0, Sys: sys(8, 8), Duration: 100}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(Task{ID: 1, Sys: sys(8, 8), Duration: 10}, nil); err != nil {
		t.Fatal(err)
	}
	err := eng.Run()
	if err == nil {
		t.Fatal("policy bug went unreported")
	}
	if !strings.Contains(err.Error(), "pick-last") || !strings.Contains(err.Error(), "task 1") {
		t.Fatalf("error does not identify the policy bug: %v", err)
	}
}

// pickLastPolicy always picks the newest queued task without checking fit.
type pickLastPolicy struct{}

func (pickLastPolicy) Name() string { return "pick-last" }
func (pickLastPolicy) Pick(ctx *PickContext) int {
	return len(ctx.Queue) - 1
}

func TestBackfillNeverDelaysTheHead(t *testing.T) {
	// One 28-core node. At t=10 task 0 asks to grow 8 → 16 cores and task
	// 1 shrinks 16 → 8. The engine dispatches task 0's resize first (it
	// was admitted first), so the growth is denied and the 20-core head
	// starts when task 1 ends at 50. A shadow that replayed the shrink
	// first would grant the growth, put the head at 100 and let task 3
	// (80 s) backfill, which then holds the head to 82.
	tasks := []Task{
		{ID: 0, Sys: sys(8, 8), Duration: 100, Resizes: []Resize{{Offset: 10, Sys: sys(16, 8)}}},
		{ID: 1, Sys: sys(16, 8), Duration: 50, Resizes: []Resize{{Offset: 10, Sys: sys(8, 8)}}},
		{ID: 2, Arrival: 1, Sys: sys(20, 8), Duration: 5},
		{ID: 3, Arrival: 2, Sys: sys(4, 4), Duration: 80},
	}
	headStart := func(p Policy) float64 {
		return run(t, New(testPool(t, 1, 28, 64), p, 0), tasks)[2].Start
	}
	fifo, backfill := headStart(FIFO()), headStart(Backfill())
	if fifo != 50 {
		t.Fatalf("FIFO head start %v, want 50", fifo)
	}
	if backfill > fifo {
		t.Fatalf("backfill delayed the head from %v (FIFO) to %v", fifo, backfill)
	}
}

// shadowSpy is a policy that records, whenever the queue's head does not
// fit, the head and the engine's shadow time for it.
type shadowSpy struct {
	Policy
	probes []shadowProbe
}

type shadowProbe struct {
	id          int
	now, shadow float64
}

func (s *shadowSpy) Pick(ctx *PickContext) int {
	if len(ctx.Queue) > 0 && !ctx.FitsNow(0) {
		s.probes = append(s.probes, shadowProbe{ctx.Queue[0].ID, ctx.Now, ctx.EarliestStart(0)})
	}
	return s.Policy.Pick(ctx)
}

type shadowCase struct {
	name  string
	pool  *Pool
	slots int
	tasks []Task
}

// randomShadowCase draws a pool of one or two nodes and a task
// set on integer times: arrivals on three instants, and every resize 10 or
// 20 s into its task, so that tasks admitted together resize at the same
// instant. Core counts are multiples of four, so those resizes contend.
func randomShadowCase(t *testing.T, seed uint64) shadowCase {
	r := xrand.New(seed)
	caps := make([]NodeCap, 1+r.Intn(2))
	for i := range caps {
		caps[i] = NodeCap{Cores: 24 + 8*r.Intn(2), MemoryGB: 32}
	}
	pool, err := NewPool(caps)
	if err != nil {
		t.Fatal(err)
	}
	footprint := func() params.SysConfig {
		return sys(4*(1+r.Intn(caps[r.Intn(len(caps))].Cores/4)), 1+r.Intn(8))
	}
	tasks := make([]Task, 6+r.Intn(6))
	for i := range tasks {
		dur := 10 * (2 + r.Intn(9))
		tasks[i] = Task{ID: i, Arrival: float64(r.Intn(3)), Sys: footprint(), Duration: float64(dur)}
		for k := 1 + r.Intn(2); k > 0; k-- {
			off := 10 * (1 + r.Intn(min(2, dur/10-1)))
			tasks[i].Resizes = append(tasks[i].Resizes, Resize{Offset: float64(off), Sys: footprint()})
		}
	}
	return shadowCase{name: "seed " + strconv.FormatUint(seed, 10), pool: pool, slots: r.Intn(4), tasks: tasks}
}

// TestShadowIsTheSchedule: under FIFO nothing is admitted while the head
// waits, so the head's shadow time must be exactly when it starts.
func TestShadowIsTheSchedule(t *testing.T) {
	cases := []shadowCase{{
		// Both running tasks ask to grow to 16 cores at t=10: the first
		// admitted gets it and keeps the node busy until 100.
		name: "two growths at one instant",
		pool: testPool(t, 1, 24, 64),
		tasks: []Task{
			{ID: 0, Sys: sys(8, 8), Duration: 100, Resizes: []Resize{{Offset: 10, Sys: sys(16, 8)}}},
			{ID: 1, Sys: sys(8, 8), Duration: 50, Resizes: []Resize{{Offset: 10, Sys: sys(16, 8)}}},
			{ID: 2, Arrival: 1, Sys: sys(16, 8), Duration: 10},
		},
	}}
	for seed := uint64(1); seed <= 2000; seed++ {
		cases = append(cases, randomShadowCase(t, seed))
	}
	probes := 0
	for _, c := range cases {
		spy := &shadowSpy{Policy: FIFO()}
		stats := run(t, New(c.pool, spy, c.slots), c.tasks)
		for _, p := range spy.probes {
			if start := stats[p.id].Start; p.shadow != start {
				t.Errorf("%s: at t=%v the shadow put head %d at %v; it started at %v",
					c.name, p.now, p.id, p.shadow, start)
				break
			}
		}
		probes += len(spy.probes)
	}
	if probes < len(cases) {
		t.Fatalf("%d probes over %d cases: too few blocked heads to test the shadow", probes, len(cases))
	}
}
