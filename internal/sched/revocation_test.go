package sched

import (
	"testing"

	"pipetune/internal/ec2"

	"math"
)

// fixedRevocations is a deterministic RevocationSource with explicit
// per-node revocation instants — the test double for ec2.SpotProcess.
type fixedRevocations struct {
	times  map[int][]float64
	outage float64
}

func (f fixedRevocations) NextAfter(node int, t float64) float64 {
	for _, at := range f.times[node] {
		if at > t {
			return at
		}
	}
	return math.Inf(1)
}

func (f fixedRevocations) OutageSeconds() float64 { return f.outage }

// spotPool builds a single-class all-spot pool of identical nodes.
func spotPool(t *testing.T, nodes, cores, mem int, speed float64) *Pool {
	t.Helper()
	caps := make([]NodeCap, nodes)
	nodeClass := make([]int, nodes)
	for i := range caps {
		caps[i] = NodeCap{Cores: cores, MemoryGB: mem}
	}
	p, err := NewPoolClasses(caps, nodeClass, []ClassCap{
		{Name: "spot", Spot: true, RevocationsPerHour: 1, SpeedFactor: speed, HourlyUSD: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRevocationEvictsRequeuesAndRetries: a mid-task revocation evicts
// the task, the node stays down for the outage window, and the task
// replays from scratch on the replacement — with the interruption fully
// accounted in its stats.
func TestRevocationEvictsRequeuesAndRetries(t *testing.T) {
	eng := New(spotPool(t, 1, 16, 32, 1), FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {40}}, outage: 10})
	stats := run(t, eng, []Task{{ID: 0, Sys: sys(8, 8), Duration: 100}})
	st := stats[0]
	if st.Revocations != 1 {
		t.Fatalf("revocations = %d, want 1", st.Revocations)
	}
	if st.Start != 50 || st.End != 150 {
		t.Fatalf("retry ran %v..%v, want 50..150 (outage ends at 50, from-scratch replay)", st.Start, st.End)
	}
	if st.WastedSeconds != 40 {
		t.Fatalf("wasted %v seconds, want 40", st.WastedSeconds)
	}
	if !almost(st.CostUSD, 140.0/3600) {
		t.Fatalf("cost %v, want both attempts billed (140s at $1/h)", st.CostUSD)
	}
	if !st.Spot || st.Class != "spot" {
		t.Fatalf("class attribution lost: %+v", st)
	}
}

// TestEvictHandlerShapesResume: the eviction handler sees the retry
// ordinal and elapsed reference seconds, and its ResumeSpec (shorter
// duration, smaller footprint, salvaged epochs) shapes the replacement
// attempt. The smaller resumed footprint is observable through a waiter
// that only fits beside it.
func TestEvictHandlerShapesResume(t *testing.T) {
	eng := New(spotPool(t, 1, 16, 32, 1), FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {40}}, outage: 10})
	gotAttempt, gotElapsed := 0, 0.0
	onEvict := func(attempt int, elapsed float64) ResumeSpec {
		gotAttempt, gotElapsed = attempt, elapsed
		return ResumeSpec{Duration: 30, Sys: sys(4, 4), SalvagedEpochs: 3}
	}
	if err := eng.SubmitRevocable(Task{ID: 0, Sys: sys(8, 8), Duration: 100}, onEvict, nil); err != nil {
		t.Fatal(err)
	}
	// 12 cores only fit beside the resumed 4-core footprint, never beside
	// the original 8-core one.
	if err := eng.Submit(Task{ID: 1, Sys: sys(12, 24), Duration: 10}, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAttempt != 2 || gotElapsed != 40 {
		t.Fatalf("handler saw attempt %d after %vs, want 2 after 40s", gotAttempt, gotElapsed)
	}
	byID := map[int]TaskStats{}
	for _, st := range eng.Stats() {
		byID[st.ID] = st
	}
	if st := byID[0]; st.End != 80 || st.SalvagedEpochs != 3 || st.Revocations != 1 {
		t.Fatalf("resumed task %+v, want end 80 with 3 salvaged epochs", st)
	}
	if byID[1].Start != 50 {
		t.Fatalf("waiter started at %v, want 50 (beside the shrunken resume)", byID[1].Start)
	}
}

// TestCompletionBeatsSameInstantRevocation: a task completing at the
// exact revocation instant keeps its result — completions settle before
// revocations at the same simulated time.
func TestCompletionBeatsSameInstantRevocation(t *testing.T) {
	eng := New(spotPool(t, 1, 16, 32, 1), FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {40}}, outage: 10})
	stats := run(t, eng, []Task{{ID: 0, Sys: sys(8, 8), Duration: 40}})
	if st := stats[0]; st.End != 40 || st.Revocations != 0 {
		t.Fatalf("same-instant completion lost to the revocation: %+v", st)
	}
}

// TestStaleEventsDroppedAfterEviction: the interrupted attempt's
// scheduled resize and completion events must not leak into the
// replacement attempt (each event names its attempt). The replay
// re-schedules its own copies on its own timeline.
func TestStaleEventsDroppedAfterEviction(t *testing.T) {
	eng := New(spotPool(t, 1, 16, 32, 1), FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {40}}, outage: 10})
	stats := run(t, eng, []Task{{ID: 0, Sys: sys(8, 8), Duration: 100,
		Resizes: []Resize{{Offset: 60, Sys: sys(4, 4)}}}})
	st := stats[0]
	// Stale resize would fire at t=60 (attempt 1's timeline) and bump the
	// count to 2; the replay's own resize fires at 50+60=110.
	if st.ResizesGranted != 1 {
		t.Fatalf("granted %d resizes, want 1 (stale attempt-1 resize must be dropped)", st.ResizesGranted)
	}
	if st.Start != 50 || st.End != 150 {
		t.Fatalf("replay ran %v..%v, want 50..150", st.Start, st.End)
	}
	// A stale completion double-firing would record a second stats row.
	if len(eng.Stats()) != 1 {
		t.Fatalf("%d completions recorded for one task", len(eng.Stats()))
	}
}

// TestEvictedTaskRestartsOnSurvivingNode: with an on-demand node free,
// the evicted task redisperses immediately instead of waiting out the
// revoked node's outage.
func TestEvictedTaskRestartsOnSurvivingNode(t *testing.T) {
	p, err := NewPoolClasses(
		[]NodeCap{{Cores: 16, MemoryGB: 32}, {Cores: 16, MemoryGB: 32}},
		[]int{0, 1},
		[]ClassCap{
			{Name: "spot", Spot: true, RevocationsPerHour: 1, SpeedFactor: 1, HourlyUSD: 0.24},
			{Name: "od", SpeedFactor: 1, HourlyUSD: 0.8},
		})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(p, FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {40}}, outage: 1000})
	stats := run(t, eng, []Task{{ID: 0, Sys: sys(8, 8), Duration: 100}})
	st := stats[0]
	if st.Start != 40 || st.End != 140 {
		t.Fatalf("retry ran %v..%v, want an immediate 40..140 restart on the surviving node", st.Start, st.End)
	}
	if st.Class != "od" || st.Spot {
		t.Fatalf("retry not attributed to the on-demand node: %+v", st)
	}
}

// TestClassSpeedScalesEverything: on a speed-4 node, durations and resize
// offsets divide by the class speed, and billing follows the scaled
// occupancy.
func TestClassSpeedScalesEverything(t *testing.T) {
	p, err := NewPoolClasses(
		[]NodeCap{{Cores: 16, MemoryGB: 32}},
		[]int{0},
		[]ClassCap{{Name: "fast", SpeedFactor: 4, HourlyUSD: 3600}}) // $1/node-second
	if err != nil {
		t.Fatal(err)
	}
	eng := New(p, FIFO(), 0)
	stats := run(t, eng, []Task{
		// Shrinks at reference offset 60 → node-local t=15, freeing room
		// for the waiter.
		{ID: 0, Sys: sys(16, 32), Duration: 100, Resizes: []Resize{{Offset: 60, Sys: sys(4, 4)}}},
		{ID: 1, Sys: sys(8, 16), Duration: 10},
	})
	if st := stats[0]; st.End != 25 || !almost(st.CostUSD, 25) {
		t.Fatalf("speed-4 task %+v, want end 25 at $25", st)
	}
	if st := stats[1]; st.Start != 15 || st.End != 17.5 {
		t.Fatalf("waiter ran %v..%v, want 15..17.5 (admitted at the scaled shrink)", st.Start, st.End)
	}
}

// TestEvictionElapsedInReferenceSeconds: the handler's elapsed argument
// is reference-speed work, not node-local wall time — on a speed-2 node a
// t=30 revocation means 60 reference seconds were executed.
func TestEvictionElapsedInReferenceSeconds(t *testing.T) {
	eng := New(spotPool(t, 1, 16, 32, 2), FIFO(), 0)
	eng.SetRevocations(fixedRevocations{times: map[int][]float64{0: {30}}, outage: 10})
	gotElapsed := 0.0
	onEvict := func(_ int, elapsed float64) ResumeSpec {
		gotElapsed = elapsed
		return ResumeSpec{Duration: 40} // the un-executed remainder
	}
	if err := eng.SubmitRevocable(Task{ID: 0, Sys: sys(8, 8), Duration: 100}, onEvict, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotElapsed != 60 {
		t.Fatalf("handler saw %v elapsed reference seconds, want 60", gotElapsed)
	}
	if st := eng.Stats()[0]; st.End != 60 {
		t.Fatalf("resume ended at %v, want 40 + 40/2 = 60", st.End)
	}
}

// TestInfiniteRevocationStreamDrains: a real Poisson revocation source is
// an unbounded stream; lazy arming (events only while a spot node hosts
// work) must still let the simulation terminate.
func TestInfiniteRevocationStreamDrains(t *testing.T) {
	eng := New(spotPool(t, 2, 16, 32, 1), FIFO(), 0)
	eng.SetRevocations(ec2.NewSpotProcess(7, []float64{12, 12}, 30))
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{ID: i, Sys: sys(8, 8), Duration: 200})
	}
	stats := run(t, eng, tasks) // run fails the test if Run errors or hangs the queue
	if len(stats) != 4 {
		t.Fatalf("%d tasks completed, want 4", len(stats))
	}
}

// TestNoSpotScheduleUntouchedBySource: arming a revocation source on a
// pool without spot nodes must not perturb the schedule at all.
func TestNoSpotScheduleUntouchedBySource(t *testing.T) {
	tasks := []Task{
		{ID: 0, Sys: sys(8, 8), Duration: 100},
		{ID: 1, Sys: sys(8, 8), Duration: 50},
		{ID: 2, Sys: sys(16, 16), Duration: 25},
	}
	plain := New(testPool(t, 1, 16, 32), FIFO(), 0)
	want := run(t, plain, tasks)
	armed := New(testPool(t, 1, 16, 32), FIFO(), 0)
	armed.SetRevocations(ec2.NewSpotProcess(7, []float64{1000}, 30))
	got := run(t, armed, tasks)
	for id := range want {
		if want[id] != got[id] {
			t.Fatalf("task %d diverged with an armed source on a spotless pool: %+v vs %+v",
				id, got[id], want[id])
		}
	}
}
