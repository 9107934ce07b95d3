package cluster

import (
	"errors"
	"math"
	"testing"

	"pipetune/internal/params"
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
	if a1.Node() == a2.Node() {
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

func TestSimulateFIFOSingleServer(t *testing.T) {
	jobs := []Job{
		{ID: 1, Arrival: 0, Duration: 10},
		{ID: 2, Arrival: 1, Duration: 10},
		{ID: 3, Arrival: 2, Duration: 10},
	}
	stats, err := SimulateFIFO(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: job2 waits 9, job3 waits 18.
	if stats[0].Wait != 0 || stats[0].Response != 10 {
		t.Fatalf("job1 stats %+v", stats[0])
	}
	if stats[1].Wait != 9 || stats[1].Response != 19 {
		t.Fatalf("job2 stats %+v", stats[1])
	}
	if stats[2].Wait != 18 || stats[2].Response != 28 {
		t.Fatalf("job3 stats %+v", stats[2])
	}
}

func TestSimulateFIFOTwoServers(t *testing.T) {
	jobs := []Job{
		{ID: 1, Arrival: 0, Duration: 10},
		{ID: 2, Arrival: 0, Duration: 10},
		{ID: 3, Arrival: 0, Duration: 10},
	}
	stats, err := SimulateFIFO(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Wait != 0 || stats[1].Wait != 0 {
		t.Fatalf("first two jobs should start immediately: %+v %+v", stats[0], stats[1])
	}
	if stats[2].Wait != 10 {
		t.Fatalf("third job wait = %v, want 10", stats[2].Wait)
	}
}

func TestSimulateFIFOPreservesArrivalOrder(t *testing.T) {
	// Even if passed out of order, service must follow arrival order.
	jobs := []Job{
		{ID: 1, Arrival: 5, Duration: 1},
		{ID: 2, Arrival: 0, Duration: 10},
	}
	stats, err := SimulateFIFO(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Start != 0 {
		t.Fatalf("earlier arrival started at %v", stats[1].Start)
	}
	if stats[0].Start != 10 {
		t.Fatalf("later arrival started at %v, want 10", stats[0].Start)
	}
}

func TestSimulateFIFOValidation(t *testing.T) {
	if _, err := SimulateFIFO([]Job{{ID: 1, Duration: 1}}, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := SimulateFIFO([]Job{{ID: 1, Duration: -1}}, 1); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestMeanResponse(t *testing.T) {
	stats := []JobStats{{Response: 10}, {Response: 20}}
	if got := MeanResponse(stats); got != 15 {
		t.Fatalf("MeanResponse = %v, want 15", got)
	}
	if got := MeanResponse(nil); got != 0 {
		t.Fatalf("empty MeanResponse = %v, want 0", got)
	}
}

func TestShorterJobsLowerResponse(t *testing.T) {
	// The core claim of Figures 13/14: shortening per-job durations
	// lowers mean response time under the same arrival process.
	r := xrand.New(11)
	arrivals := PoissonArrivals(r, 40, 50)
	mk := func(dur float64) []Job {
		jobs := make([]Job, len(arrivals))
		for i, a := range arrivals {
			jobs[i] = Job{ID: i, Arrival: a, Duration: dur}
		}
		return jobs
	}
	slow, err := SimulateFIFO(mk(100), 4)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SimulateFIFO(mk(70), 4)
	if err != nil {
		t.Fatal(err)
	}
	if MeanResponse(fast) >= MeanResponse(slow) {
		t.Fatalf("30%% shorter jobs did not lower mean response: %v vs %v",
			MeanResponse(fast), MeanResponse(slow))
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
