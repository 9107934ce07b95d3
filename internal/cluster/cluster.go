// Package cluster models the deep-learning cluster of §5.1 and §7.1.1:
// the nodes on which HPT jobs are scheduled. The paper's testbeds are N
// nodes with C cores and M GB each; NewClasses concatenates groups of
// differently shaped nodes. A Cluster only describes its node shapes and
// holds no occupancy: trials are placed first-fit by the internal/sched
// engine, to which SchedPool exports the shapes.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"pipetune/internal/ec2"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/xrand"
)

// NodeSpec describes one node's capacity.
type NodeSpec struct {
	Cores    int `json:"cores"`
	MemoryGB int `json:"memoryGB"`
}

// NodeClass is a group of Count nodes sharing a shape. Name, SpeedFactor,
// HourlyUSD, Spot and RevocationsPerHour describe the EC2 instance and
// market the group is bought from (EC2Fleet, SplitSpot); the cluster keeps
// only the shape and count, so a trial's duration and placement never
// depend on them.
type NodeClass struct {
	Name               string
	Spec               NodeSpec
	Count              int
	SpeedFactor        float64
	HourlyUSD          float64
	Spot               bool
	RevocationsPerHour float64
}

// Cluster is a fixed set of node shapes, immutable after construction.
type Cluster struct {
	nodes []NodeSpec
}

// New builds a cluster of numNodes identical nodes.
func New(numNodes int, spec NodeSpec) (*Cluster, error) {
	c := &Cluster{}
	if err := c.add(numNodes, spec); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return c, nil
}

// NewClasses builds a cluster from node classes, their nodes in
// declaration order.
func NewClasses(classes []NodeClass) (*Cluster, error) {
	if len(classes) == 0 {
		return nil, errors.New("cluster: no node classes")
	}
	c := &Cluster{}
	for _, nc := range classes {
		if err := c.add(nc.Count, nc.Spec); err != nil {
			return nil, fmt.Errorf("cluster: class %q: %w", nc.Name, err)
		}
	}
	return c, nil
}

// add appends count nodes of shape spec.
func (c *Cluster) add(count int, spec NodeSpec) error {
	if count < 1 {
		return fmt.Errorf("%d nodes invalid", count)
	}
	if spec.Cores < 1 || spec.MemoryGB < 1 {
		return fmt.Errorf("invalid node spec %+v", spec)
	}
	for range count {
		c.nodes = append(c.nodes, spec)
	}
	return nil
}

// finiteNonNegative reports whether x is a real number ≥ 0: NaN and +Inf
// fail it, as a negative does.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// EC2Fleet builds the Figure 1 heterogeneous fleet: nodesPerShape nodes of
// each of the three instance shapes, split by SplitSpot at the shape's
// spot-market rate. spotFraction 0 yields a purely on-demand fleet.
func EC2Fleet(nodesPerShape int, spotFraction, revocationsPerHour float64) ([]NodeClass, error) {
	if nodesPerShape < 1 {
		return nil, fmt.Errorf("cluster: %d nodes per shape invalid", nodesPerShape)
	}
	var shapes []NodeClass
	spotUSD := map[string]float64{}
	for _, it := range ec2.All() {
		spec, err := ec2.SpecFor(it)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, NodeClass{
			Name:        it.String(),
			Spec:        NodeSpec{Cores: spec.VCPUs, MemoryGB: spec.MemoryGB},
			Count:       nodesPerShape,
			SpeedFactor: spec.SpeedFactor,
			HourlyUSD:   spec.HourlyUSD,
		})
		spotUSD[it.String()] = spec.SpotHourlyUSD
	}
	return SplitSpot(shapes, spotFraction, revocationsPerHour, func(nc NodeClass) float64 { return spotUSD[nc.Name] })
}

// SplitSpot buys spotFraction of every class from the spot market:
// round(Count·spotFraction) of its nodes move into a "<name>-spot" class
// right after it, priced at spotHourlyUSD(class) and quoted at
// revocationsPerHour per node. A class left without on-demand nodes is
// dropped; a class that rounds to no spot node stays as it is.
func SplitSpot(classes []NodeClass, spotFraction, revocationsPerHour float64, spotHourlyUSD func(NodeClass) float64) ([]NodeClass, error) {
	if !(spotFraction >= 0 && spotFraction <= 1) {
		return nil, fmt.Errorf("cluster: spot fraction %v outside [0,1]", spotFraction)
	}
	if !finiteNonNegative(revocationsPerHour) {
		return nil, fmt.Errorf("cluster: spot revocation rate %v is not finite and non-negative", revocationsPerHour)
	}
	out := make([]NodeClass, 0, 2*len(classes))
	for _, nc := range classes {
		spot := int(math.Round(float64(nc.Count) * spotFraction))
		if spot <= 0 {
			out = append(out, nc)
			continue
		}
		sc := nc
		sc.Name += "-spot"
		sc.Count = spot
		sc.HourlyUSD = spotHourlyUSD(nc)
		sc.Spot = true
		sc.RevocationsPerHour = revocationsPerHour
		if nc.Count -= spot; nc.Count > 0 {
			out = append(out, nc)
		}
		out = append(out, sc)
	}
	return out, nil
}

// Paper returns the §7.1.1 distributed testbed: 4 nodes of quad-socket
// E3-1275 machines (8 cores per CPU ⇒ 32 cores) with 64 GiB of RAM.
func Paper() *Cluster {
	c, err := New(4, NodeSpec{Cores: 32, MemoryGB: 64})
	if err != nil {
		// Static configuration; failure is a programming error.
		panic(err)
	}
	return c
}

// SingleNode returns the §7.1.1 Type-III testbed: one E5-2620 node with
// 8 cores and 24 GB of RAM.
func SingleNode() *Cluster {
	c, err := New(1, NodeSpec{Cores: 8, MemoryGB: 24})
	if err != nil {
		panic(err)
	}
	return c
}

// SchedPool exports the cluster's node shapes as an empty internal/sched
// occupancy pool — the one occupancy model, on which the event-driven
// trial scheduler places footprints first-fit, never spanning nodes.
func (c *Cluster) SchedPool() *sched.Pool {
	caps := make([]sched.NodeCap, len(c.nodes))
	for i, n := range c.nodes {
		caps[i] = sched.NodeCap{Cores: n.Cores, MemoryGB: n.MemoryGB}
	}
	p, err := sched.NewPool(caps)
	if err != nil {
		// Cluster construction already validated the shapes.
		panic(err)
	}
	return p
}

// Fits reports whether sys fits some node shape: whether a trial of that
// footprint could ever be placed on the empty cluster.
func (c *Cluster) Fits(sys params.SysConfig) bool {
	for _, n := range c.nodes {
		if n.Cores >= sys.Cores && n.MemoryGB >= sys.MemoryGB {
			return true
		}
	}
	return false
}

// Slots is how many trials of footprint fp the empty cluster holds side by
// side: the sum over nodes of min(cores/fp.Cores, mem/fp.MemoryGB), which
// is what first-fit placement of identical footprints reaches. fp must be
// a valid (positive) footprint.
func (c *Cluster) Slots(fp params.SysConfig) int {
	total := 0
	for _, n := range c.nodes {
		total += min(n.Cores/fp.Cores, n.MemoryGB/fp.MemoryGB)
	}
	return total
}

// PoissonArrivals generates n arrival times with exponentially distributed
// inter-arrival gaps of the given mean (§7.4: "jobs arrive randomly with
// the interarrival times being exponentially distributed").
func PoissonArrivals(r *xrand.Source, n int, meanGap float64) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() * meanGap
		out[i] = t
	}
	return out
}
