package sched

// Policy is the placement-policy argument cmd/bench's scheduler probe
// still passes to New. The engine never reads it: placement is always
// FIFO. The next change to the benchmark's scheduler probe deletes it,
// FIFO and New's parameter together (ROADMAP 26, phase C).
type Policy any

// FIFO returns the Policy value cmd/bench passes to New (see Policy).
func FIFO() Policy { return nil }
