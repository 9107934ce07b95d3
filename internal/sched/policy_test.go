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
// queues: who wins on equal durations and who is skipped when blocked.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Pick(ctxOf(tc.queue, tc.fits, tc.shadow)); got != tc.want {
				t.Fatalf("%s.Pick = %d, want %d", tc.policy.Name(), got, tc.want)
			}
		})
	}
}
