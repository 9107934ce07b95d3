package sched

import (
	"testing"

	"pipetune/internal/xrand"
)

// ec2BenchPool builds the Figure 1 half-spot fleet shape: per instance
// shape one node at the on-demand rate and one at the spot rate.
func ec2BenchPool(b *testing.B) *Pool {
	b.Helper()
	shapes := []struct {
		cores, mem int
		speed      float64
		od, spot   float64
	}{
		{16, 64, 1.0, 0.80, 0.24},
		{48, 192, 2.6, 2.304, 0.6912},
		{96, 384, 4.8, 4.608, 1.3824},
	}
	var caps []NodeCap
	var nodeClass []int
	var classes []ClassCap
	for _, s := range shapes {
		classes = append(classes,
			ClassCap{Name: "od", SpeedFactor: s.speed, HourlyUSD: s.od},
			ClassCap{Name: "spot", SpeedFactor: s.speed, HourlyUSD: s.spot})
		caps = append(caps, NodeCap{Cores: s.cores, MemoryGB: s.mem}, NodeCap{Cores: s.cores, MemoryGB: s.mem})
		nodeClass = append(nodeClass, len(classes)-2, len(classes)-1)
	}
	p, err := NewPoolClasses(caps, nodeClass, classes)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchTasks builds a Poisson-arrival stream of mixed footprints.
func benchTasks(n int) []Task {
	r := xrand.New(11)
	tasks := make([]Task, n)
	at := 0.0
	for i := range tasks {
		at += r.ExpFloat64() * 5
		tasks[i] = Task{
			ID:       i,
			Arrival:  at,
			Sys:      sys(4+int(r.Uint64()%13), 4+int(r.Uint64()%29)),
			Duration: 50 + r.Float64()*200,
		}
	}
	return tasks
}

// BenchmarkCostAwarePlacement prices one full discrete-event simulation
// of 500 trials over the 6-node heterogeneous fleet under each placement
// policy — the per-dispatch cost of the policy's view (queue copy, fit
// probes, the class axis over the pool's own class list) and the
// chooser's class scan.
func BenchmarkCostAwarePlacement(b *testing.B) {
	tasks := benchTasks(500)
	for _, policy := range []Policy{FIFO(), Cheapest(), PerfPerDollar()} {
		b.Run(policy.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool := ec2BenchPool(b)
				eng := New(pool, policy, 0)
				for _, t := range tasks {
					if err := eng.Submit(t, nil); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateFIFO prices the §7.4 queueing model behind Figures
// 13/14: 500 HPT jobs through four one-core, one-GB servers of a pool
// under FIFO.
func BenchmarkSimulateFIFO(b *testing.B) {
	tasks := poissonTasks(3, 500, 10)
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tasks, 4, FIFO()); err != nil {
			b.Fatal(err)
		}
	}
}
