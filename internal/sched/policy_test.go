package sched

import (
	"math"
	"testing"
)

// ctxOf hand-rolls a PickContext over explicit fit and shadow tables so
// the Pick tie-break rules are tested against the interface contract, not
// pool internals.
func ctxOf(queue []Task, fits []bool, shadow float64) *PickContext {
	return &PickContext{
		Queue:         queue,
		FitsNow:       func(i int) bool { return fits[i] },
		EarliestStart: func(int) float64 { return shadow },
	}
}

// TestPickTieBreakTables pins every policy's admission order on mixed
// queues: who wins on equal durations, who is skipped when blocked, and
// that the cost-aware policies keep FIFO's head-of-line blocking.
func TestPickTieBreakTables(t *testing.T) {
	d := func(dur float64) Task { return Task{Duration: dur} }
	cases := []struct {
		name   string
		policy Policy
		queue  []Task
		fits   []bool
		shadow float64
		want   int
	}{
		{"fifo/head-fits", FIFO(), []Task{d(50), d(10)}, []bool{true, true}, 0, 0},
		{"fifo/head-blocked-blocks-all", FIFO(), []Task{d(50), d(10)}, []bool{false, true}, 100, -1},
		{"fifo/empty-queue", FIFO(), nil, nil, 0, -1},
		{"sjf/shortest-wins", SJF(), []Task{d(50), d(10), d(30)}, []bool{true, true, true}, 0, 1},
		{"sjf/skips-non-fitting", SJF(), []Task{d(50), d(10), d(30)}, []bool{true, false, true}, 0, 2},
		{"sjf/duration-tie-oldest-wins", SJF(), []Task{d(30), d(10), d(10)}, []bool{true, true, true}, 0, 1},
		{"sjf/nothing-fits", SJF(), []Task{d(30), d(20)}, []bool{false, false}, 100, -1},
		{"backfill/head-first-when-fits", Backfill(), []Task{d(50), d(1)}, []bool{true, true}, 0, 0},
		{"backfill/fills-hole-within-shadow", Backfill(), []Task{d(50), d(200), d(30)}, []bool{false, true, true}, 40, 2},
		{"backfill/candidate-tie-oldest-wins", Backfill(), []Task{d(50), d(30), d(20)}, []bool{false, true, true}, 40, 1},
		{"backfill/shadow-blocks-overrunners", Backfill(), []Task{d(50), d(60)}, []bool{false, true}, 40, -1},
		{"backfill/infinite-shadow-admits-nothing", Backfill(), []Task{d(50), d(10)}, []bool{false, true}, math.Inf(1), -1},
		{"cheapest/keeps-head-of-line-blocking", Cheapest(), []Task{d(50), d(10)}, []bool{false, true}, 100, -1},
		{"cheapest/head-fits", Cheapest(), []Task{d(50), d(10)}, []bool{true, true}, 0, 0},
		{"perf-per-dollar/keeps-head-of-line-blocking", PerfPerDollar(), []Task{d(50), d(10)}, []bool{false, true}, 100, -1},
		{"perf-per-dollar/head-fits", PerfPerDollar(), []Task{d(50), d(10)}, []bool{true, true}, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Pick(ctxOf(tc.queue, tc.fits, tc.shadow)); got != tc.want {
				t.Fatalf("%s.Pick = %d, want %d", tc.policy.Name(), got, tc.want)
			}
		})
	}
}

// classCtxOf hand-rolls the class axis for one queued task: fits[c] and
// cost[c] describe class c. PerfPerDollar reads speed/price from the
// ClassCap itself, so callers pass real caps.
func classCtxOf(caps []ClassCap, fits []bool, cost []float64) *PickContext {
	return &PickContext{
		Queue:     []Task{{Duration: 100}},
		Classes:   caps,
		ClassFits: func(_, c int) bool { return fits[c] },
		ClassCost: func(_, c int) float64 { return cost[c] },
	}
}

// TestChooseClassTables pins the class tie-breaks of both cost-aware
// policies: strict minimisation/maximisation, declaration-order ties,
// non-fitting classes skipped, free classes infinitely good, and -1 when
// no class has room.
func TestChooseClassTables(t *testing.T) {
	caps := func(specs ...[2]float64) []ClassCap {
		out := make([]ClassCap, len(specs))
		for i, s := range specs {
			out[i] = ClassCap{SpeedFactor: s[0], HourlyUSD: s[1]}
		}
		return out
	}
	cases := []struct {
		name    string
		chooser ClassChooser
		caps    []ClassCap
		fits    []bool
		cost    []float64
		want    int
	}{
		{"cheapest/min-cost-wins", Cheapest().(ClassChooser),
			caps([2]float64{1, 1}, [2]float64{1, 1}, [2]float64{1, 1}),
			[]bool{true, true, true}, []float64{0.9, 0.2, 0.5}, 1},
		{"cheapest/tie-first-declared-wins", Cheapest().(ClassChooser),
			caps([2]float64{1, 1}, [2]float64{1, 1}),
			[]bool{true, true}, []float64{0.4, 0.4}, 0},
		{"cheapest/skips-full-cheapest", Cheapest().(ClassChooser),
			caps([2]float64{1, 1}, [2]float64{1, 1}),
			[]bool{false, true}, []float64{0.1, 0.9}, 1},
		{"cheapest/nothing-fits", Cheapest().(ClassChooser),
			caps([2]float64{1, 1}, [2]float64{1, 1}),
			[]bool{false, false}, []float64{0.1, 0.9}, -1},
		{"perf-per-dollar/best-ratio-wins", PerfPerDollar().(ClassChooser),
			caps([2]float64{1, 0.8}, [2]float64{4.8, 1.4}, [2]float64{2.6, 2.3}),
			[]bool{true, true, true}, []float64{0, 0, 0}, 1},
		{"perf-per-dollar/free-class-always-preferred", PerfPerDollar().(ClassChooser),
			caps([2]float64{10, 0.01}, [2]float64{1, 0}),
			[]bool{true, true}, []float64{0, 0}, 1},
		{"perf-per-dollar/tie-first-declared-wins", PerfPerDollar().(ClassChooser),
			caps([2]float64{1, 0.5}, [2]float64{2, 1}),
			[]bool{true, true}, []float64{0, 0}, 0},
		{"perf-per-dollar/skips-full-best", PerfPerDollar().(ClassChooser),
			caps([2]float64{4.8, 1.4}, [2]float64{1, 0.8}),
			[]bool{false, true}, []float64{0, 0}, 1},
		{"perf-per-dollar/nothing-fits", PerfPerDollar().(ClassChooser),
			caps([2]float64{1, 1}),
			[]bool{false}, []float64{0}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := classCtxOf(tc.caps, tc.fits, tc.cost)
			if got := tc.chooser.ChooseClass(ctx, 0); got != tc.want {
				t.Fatalf("ChooseClass = %d, want %d", got, tc.want)
			}
		})
	}
}

// classPool builds a two-class heterogeneous pool: 2 cheap slow "budget"
// nodes and 1 fast expensive "turbo" node.
func classPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPoolClasses(
		[]NodeCap{{Cores: 16, MemoryGB: 32}, {Cores: 16, MemoryGB: 32}, {Cores: 32, MemoryGB: 64}},
		[]int{0, 0, 1},
		[]ClassCap{
			{Name: "budget", SpeedFactor: 1, HourlyUSD: 0.2},
			{Name: "turbo", SpeedFactor: 2, HourlyUSD: 2.4},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestPickContextClassView checks the live class axis the engine hands
// policies under asymmetric occupancy: one budget node partly occupied,
// the other full, must show up in the fits and prices.
func TestPickContextClassView(t *testing.T) {
	e := New(classPool(t), Cheapest(), 0)
	e.pool.placeOn(0, sys(12, 8))
	e.pool.placeOn(1, sys(16, 32))
	e.queue = []*queued{{task: Task{Sys: sys(8, 8), Duration: 7200}}}

	ctx := e.pickContext()
	if ctx.Classes[0].Name != "budget" || ctx.Classes[1].Name != "turbo" {
		t.Fatalf("class list %+v, want the pool's classes in declaration order", ctx.Classes)
	}
	if ctx.ClassFits(0, 0) {
		t.Fatal("8 cores reported fitting a class with 4 free on its only open node")
	}
	if !ctx.ClassFits(0, 1) {
		t.Fatal("idle turbo node reported full")
	}
	if got := ctx.ClassCost(0, 1); !almost(got, 2.4) {
		t.Fatalf("turbo cost %v, want 2.4 (7200 s at speed 2, $2.4/h)", got)
	}
	// The budget class would be 6x cheaper (0.4$) but has no room: the
	// chooser must spill to turbo rather than stall.
	if got := Cheapest().(ClassChooser).ChooseClass(ctx, 0); got != 1 {
		t.Fatalf("cheapest chose class %d with the cheap class full, want 1", got)
	}
}

// TestCheapestPlacesOnCheapClassAndSpills drives the whole engine: the
// first two tasks land on the budget nodes, the third spills to turbo,
// runs twice as fast, and is billed at the turbo rate.
func TestCheapestPlacesOnCheapClassAndSpills(t *testing.T) {
	eng := New(classPool(t), Cheapest(), 0)
	stats := run(t, eng, []Task{
		{ID: 0, Sys: sys(16, 32), Duration: 3600},
		{ID: 1, Sys: sys(16, 32), Duration: 3600},
		{ID: 2, Sys: sys(16, 32), Duration: 3600},
	})
	for id := 0; id <= 1; id++ {
		if stats[id].Class != "budget" || stats[id].End != 3600 {
			t.Fatalf("task %d: %+v, want budget class ending at 3600", id, stats[id])
		}
		if !almost(stats[id].CostUSD, 0.2) {
			t.Fatalf("task %d cost %v, want 0.2", id, stats[id].CostUSD)
		}
	}
	if stats[2].Class != "turbo" || stats[2].End != 1800 {
		t.Fatalf("spilled task: %+v, want turbo class ending at 1800", stats[2])
	}
	if !almost(stats[2].CostUSD, 1.2) {
		t.Fatalf("spilled task cost %v, want 1.2", stats[2].CostUSD)
	}
}

// TestPerfPerDollarPrefersBestRatio: budget offers 1/0.2 = 5 speed per
// dollar against turbo's 2/2.4, so a lone task lands on budget even
// though turbo is idle and faster.
func TestPerfPerDollarPrefersBestRatio(t *testing.T) {
	eng := New(classPool(t), PerfPerDollar(), 0)
	stats := run(t, eng, []Task{{ID: 0, Sys: sys(16, 32), Duration: 3600}})
	if stats[0].Class != "budget" || stats[0].End != 3600 {
		t.Fatalf("perf-per-dollar placed %+v, want budget class", stats[0])
	}
}
