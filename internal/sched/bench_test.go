package sched

import "testing"

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
