package cluster

import (
	"errors"
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
	p := Paper()
	if len(p.nodes) != 4 || p.FreeCores() != 128 {
		t.Fatalf("paper cluster = %d nodes, %d cores; want 4 nodes, 128 cores", len(p.nodes), p.FreeCores())
	}
	s := SingleNode()
	if len(s.nodes) != 1 || s.FreeCores() != 8 {
		t.Fatalf("single node = %d nodes, %d cores", len(s.nodes), s.FreeCores())
	}
}

func TestAllocateAndRelease(t *testing.T) {
	c, err := New(1, NodeSpec{Cores: 16, MemoryGB: 32})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := c.Allocate(params.SysConfig{Cores: 8, MemoryGB: 16})
	if err != nil {
		t.Fatal(err)
	}
	if c.FreeCores() != 8 {
		t.Fatalf("free cores = %d, want 8", c.FreeCores())
	}
	a2, err := c.Allocate(params.SysConfig{Cores: 8, MemoryGB: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(params.SysConfig{Cores: 1, MemoryGB: 1}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-allocation error = %v, want ErrInsufficient", err)
	}
	if err := a1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := a2.Release(); err != nil {
		t.Fatal(err)
	}
	if c.FreeCores() != 16 {
		t.Fatalf("free cores after release = %d, want 16", c.FreeCores())
	}
}

func TestDoubleReleaseRejected(t *testing.T) {
	c, _ := New(1, NodeSpec{Cores: 8, MemoryGB: 8})
	a, err := c.Allocate(params.SysConfig{Cores: 4, MemoryGB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err == nil {
		t.Fatal("double release accepted")
	}
	if c.FreeCores() != 8 {
		t.Fatalf("double release corrupted accounting: %d free", c.FreeCores())
	}
}

func TestAllocateMemoryBound(t *testing.T) {
	c, _ := New(1, NodeSpec{Cores: 32, MemoryGB: 8})
	if _, err := c.Allocate(params.SysConfig{Cores: 4, MemoryGB: 16}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("memory over-allocation error = %v", err)
	}
}

func TestAllocateSpreadsAcrossNodes(t *testing.T) {
	c, _ := New(2, NodeSpec{Cores: 8, MemoryGB: 16})
	a1, err := c.Allocate(params.SysConfig{Cores: 8, MemoryGB: 8})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Allocate(params.SysConfig{Cores: 8, MemoryGB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a1.node == a2.node {
		t.Fatal("two full-node allocations landed on the same node")
	}
}

func TestFits(t *testing.T) {
	c := SingleNode()
	if !c.Fits(params.SysConfig{Cores: 8, MemoryGB: 24}) {
		t.Fatal("full node should fit")
	}
	if c.Fits(params.SysConfig{Cores: 16, MemoryGB: 8}) {
		t.Fatal("16 cores cannot fit an 8-core node")
	}
}

func TestAllocateValidation(t *testing.T) {
	c := Paper()
	if _, err := c.Allocate(params.SysConfig{}); err == nil {
		t.Fatal("invalid sysconfig accepted")
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
