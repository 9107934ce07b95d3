package cluster

import (
	"math"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, NodeSpec{Cores: 8, MemoryGB: 16}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(2, NodeSpec{Cores: 0, MemoryGB: 16}); err == nil {
		t.Fatal("zero-core nodes accepted")
	}
}

func TestPaperClusters(t *testing.T) {
	core := params.SysConfig{Cores: 1, MemoryGB: 1}
	p := Paper()
	if len(p.nodes) != 4 || p.Slots(core) != 128 {
		t.Fatalf("paper cluster = %d nodes, %d cores; want 4 nodes, 128 cores", len(p.nodes), p.Slots(core))
	}
	s := SingleNode()
	if len(s.nodes) != 1 || s.Slots(core) != 8 {
		t.Fatalf("single node = %d nodes, %d cores", len(s.nodes), s.Slots(core))
	}
}

// TestFits: a footprint fits when some node shape holds it on both axes.
func TestFits(t *testing.T) {
	c := SingleNode()
	if !c.Fits(params.SysConfig{Cores: 8, MemoryGB: 24}) {
		t.Fatal("full node should fit")
	}
	if c.Fits(params.SysConfig{Cores: 16, MemoryGB: 8}) {
		t.Fatal("16 cores cannot fit an 8-core node")
	}
	if c.Fits(params.SysConfig{Cores: 4, MemoryGB: 32}) {
		t.Fatal("32 GB cannot fit a 24 GB node")
	}
}

func TestShorterJobsLowerResponse(t *testing.T) {
	// The core claim of Figures 13/14: shortening per-job durations
	// lowers mean response time under the same arrival process.
	r := xrand.New(11)
	arrivals := PoissonArrivals(r, 40, 50)
	meanResponse := func(dur float64) float64 {
		tasks := make([]sched.Task, len(arrivals))
		for i, a := range arrivals {
			tasks[i] = sched.Task{ID: i, Arrival: a, Duration: dur}
		}
		stats, err := sched.Simulate(tasks, 4, sched.FIFO())
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, s := range stats {
			sum += s.Response
		}
		return sum / float64(len(stats))
	}
	if fast, slow := meanResponse(70), meanResponse(100); fast >= slow {
		t.Fatalf("30%% shorter jobs did not lower mean response: %v vs %v", fast, slow)
	}
}

func TestPoissonArrivals(t *testing.T) {
	r := xrand.New(3)
	const n, gap = 20000, 7.0
	arr := PoissonArrivals(r, n, gap)
	if len(arr) != n {
		t.Fatalf("generated %d arrivals", len(arr))
	}
	prev := -1.0
	for _, a := range arr {
		if a <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		prev = a
	}
	meanGap := arr[n-1] / float64(n)
	if math.Abs(meanGap-gap)/gap > 0.05 {
		t.Fatalf("mean gap = %v, want ~%v", meanGap, gap)
	}
}
