// Package cluster models the deep-learning cluster of §5.1 and §7.1.1: a
// typed node plane on which HPT jobs are scheduled. The homogeneous
// testbed of the paper (N nodes with C cores and M GB each) is the
// single-class special case; NewClasses builds heterogeneous fleets whose
// classes carry distinct core/memory shapes, relative speed and pricing,
// seeded from the three ec2 instance shapes of Figure 1. A Cluster only describes its nodes and
// holds no occupancy: trials are placed by the internal/sched engine, to
// which SchedPool exports the node shapes and classes.
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

// NodeClass is one class of a (possibly heterogeneous) cluster: Count
// nodes sharing a shape, a relative speed and a price.
type NodeClass struct {
	// Name labels the class in placement decisions, metrics and the API.
	// The legacy homogeneous constructors use the empty name, which keeps
	// their records and wire bodies byte-identical to the pre-class era.
	Name string   `json:"name"`
	Spec NodeSpec `json:"spec"`
	// Count is the number of nodes of this class.
	Count int `json:"count"`
	// SpeedFactor scales trial throughput relative to the reference node
	// (m4.4xlarge = 1): a trial's simulated duration divides by it. 0 is
	// normalised to 1 at construction.
	SpeedFactor float64 `json:"speedFactor,omitempty"`
	// HourlyUSD is the class's per-node rate — on-demand or spot,
	// whichever market the class is provisioned from.
	HourlyUSD float64 `json:"hourlyUSD,omitempty"`
	// Spot marks capacity bought on the spot market, and
	// RevocationsPerHour is that market's quoted per-node interruption
	// rate. Both are price-tier data that /healthz reports: the scheduler
	// never revokes a node, so a placed trial runs to completion.
	Spot               bool    `json:"spot,omitempty"`
	RevocationsPerHour float64 `json:"revocationsPerHour,omitempty"`
}

// ClassStatus is one class's row in a Composition.
type ClassStatus struct {
	Name               string  `json:"name"`
	Count              int     `json:"count"`
	Cores              int     `json:"cores"`
	MemoryGB           int     `json:"memoryGB"`
	Spot               bool    `json:"spot,omitempty"`
	SpeedFactor        float64 `json:"speedFactor,omitempty"`
	HourlyUSD          float64 `json:"hourlyUSD,omitempty"`
	RevocationsPerHour float64 `json:"revocationsPerHour,omitempty"`
}

// Composition is the cluster's node-class composition as /healthz
// reports it: the node count split into spot and on-demand, plus one row
// per class.
type Composition struct {
	Nodes         int           `json:"nodes"`
	SpotNodes     int           `json:"spotNodes"`
	OnDemandNodes int           `json:"onDemandNodes"`
	Classes       []ClassStatus `json:"classes,omitempty"`
}

// node is one node's shape and class.
type node struct {
	spec  NodeSpec
	class int // index into classes
}

// Cluster is a fixed set of nodes grouped into classes, immutable after
// construction. Node order is class declaration order.
type Cluster struct {
	nodes   []node
	classes []NodeClass
}

// New builds a homogeneous cluster: one unnamed class, speed 1, free —
// the pre-class behaviour, bit-identical in every record and wire body.
func New(numNodes int, spec NodeSpec) (*Cluster, error) {
	return NewClasses([]NodeClass{{Spec: spec, Count: numNodes}})
}

// NewClasses builds a cluster from node classes, in declaration order.
func NewClasses(classes []NodeClass) (*Cluster, error) {
	if len(classes) == 0 {
		return nil, errors.New("cluster: no node classes")
	}
	c := &Cluster{classes: make([]NodeClass, len(classes))}
	for ci, nc := range classes {
		if nc.Count < 1 {
			return nil, fmt.Errorf("cluster: class %q: %d nodes invalid", nc.Name, nc.Count)
		}
		if nc.Spec.Cores < 1 || nc.Spec.MemoryGB < 1 {
			return nil, fmt.Errorf("cluster: class %q: invalid node spec %+v", nc.Name, nc.Spec)
		}
		if !finiteNonNegative(nc.SpeedFactor) || !finiteNonNegative(nc.RevocationsPerHour) || !finiteNonNegative(nc.HourlyUSD) {
			return nil, fmt.Errorf("cluster: class %q: speed, rate and price must be finite and non-negative", nc.Name)
		}
		if nc.SpeedFactor == 0 {
			nc.SpeedFactor = 1
		}
		c.classes[ci] = nc
		for i := 0; i < nc.Count; i++ {
			c.nodes = append(c.nodes, node{spec: nc.Spec, class: ci})
		}
	}
	return c, nil
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

// Composition reports the node-class composition, or nil for the
// anonymous single class of New, Paper and SingleNode, which carries
// nothing worth reporting.
func (c *Cluster) Composition() *Composition {
	if len(c.classes) == 1 && c.classes[0].Name == "" {
		return nil
	}
	spot, onDemand := c.SpotCounts()
	return &Composition{Nodes: len(c.nodes), SpotNodes: spot, OnDemandNodes: onDemand, Classes: c.Status()}
}

// Status returns one row per class, in declaration order.
func (c *Cluster) Status() []ClassStatus {
	out := make([]ClassStatus, len(c.classes))
	for i, nc := range c.classes {
		out[i] = ClassStatus{
			Name:               nc.Name,
			Count:              nc.Count,
			Cores:              nc.Spec.Cores,
			MemoryGB:           nc.Spec.MemoryGB,
			Spot:               nc.Spot,
			SpeedFactor:        nc.SpeedFactor,
			HourlyUSD:          nc.HourlyUSD,
			RevocationsPerHour: nc.RevocationsPerHour,
		}
	}
	return out
}

// SpotCounts returns the spot and on-demand node counts.
func (c *Cluster) SpotCounts() (spot, onDemand int) {
	for _, nc := range c.classes {
		if nc.Spot {
			spot += nc.Count
		} else {
			onDemand += nc.Count
		}
	}
	return spot, onDemand
}

// HourlyUSD is the fleet's aggregate per-hour price: what keeping every
// node provisioned for one hour costs.
func (c *Cluster) HourlyUSD() float64 {
	total := 0.0
	for _, nc := range c.classes {
		total += float64(nc.Count) * nc.HourlyUSD
	}
	return total
}

// SchedPool exports the cluster's node shapes and classes as an empty
// internal/sched occupancy pool — the one occupancy model, on which the
// event-driven trial scheduler places footprints (first-fit, never
// spanning nodes), with per-node class metadata for cost-aware placement.
func (c *Cluster) SchedPool() *sched.Pool {
	caps := make([]sched.NodeCap, len(c.nodes))
	nodeClass := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		caps[i] = sched.NodeCap{Cores: n.spec.Cores, MemoryGB: n.spec.MemoryGB}
		nodeClass[i] = n.class
	}
	classes := make([]sched.ClassCap, len(c.classes))
	for i, nc := range c.classes {
		classes[i] = sched.ClassCap{
			Name:        nc.Name,
			SpeedFactor: nc.SpeedFactor,
			HourlyUSD:   nc.HourlyUSD,
		}
	}
	p, err := sched.NewPoolClasses(caps, nodeClass, classes)
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
		if n.spec.Cores >= sys.Cores && n.spec.MemoryGB >= sys.MemoryGB {
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
		total += min(n.spec.Cores/fp.Cores, n.spec.MemoryGB/fp.MemoryGB)
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
