package cluster_test

import (
	"fmt"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/core"
	"pipetune/internal/params"
)

// nodesOf lists the node shapes NewClasses builds from classes, in order.
func nodesOf(classes []cluster.NodeClass) []cluster.NodeSpec {
	var nodes []cluster.NodeSpec
	for _, nc := range classes {
		for range nc.Count {
			nodes = append(nodes, nc.Spec)
		}
	}
	return nodes
}

// firstFitCount packs identical footprints first-fit onto empty nodes,
// node by node in order, until one no longer fits.
func firstFitCount(nodes []cluster.NodeSpec, fp params.SysConfig) int {
	free := append([]cluster.NodeSpec(nil), nodes...)
	placed := 0
	for {
		n := 0
		for n < len(free) && (free[n].Cores < fp.Cores || free[n].MemoryGB < fp.MemoryGB) {
			n++
		}
		if n == len(free) {
			return placed
		}
		free[n].Cores -= fp.Cores
		free[n].MemoryGB -= fp.MemoryGB
		placed++
	}
}

// TestSlotsMatchesFirstFit holds the closed form to a brute-force
// first-fit count: on the paper testbeds, the EC2 fleet and an asymmetric
// fleet whose classes bind on different axes, for every probe footprint
// and the default configuration.
func TestSlotsMatchesFirstFit(t *testing.T) {
	ec2Classes, err := cluster.EC2Fleet(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	asymClasses := []cluster.NodeClass{
		{Name: "wide", Spec: cluster.NodeSpec{Cores: 48, MemoryGB: 16}, Count: 1},
		{Name: "deep", Spec: cluster.NodeSpec{Cores: 8, MemoryGB: 128}, Count: 3},
		{Name: "odd", Spec: cluster.NodeSpec{Cores: 20, MemoryGB: 36}, Count: 2},
	}
	ec2, err := cluster.NewClasses(ec2Classes)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := cluster.NewClasses(asymClasses)
	if err != nil {
		t.Fatal(err)
	}
	fleets := []struct {
		name    string
		c       *cluster.Cluster
		classes []cluster.NodeClass // what c was built from
	}{
		{"paper", cluster.Paper(), []cluster.NodeClass{{Spec: cluster.NodeSpec{Cores: 32, MemoryGB: 64}, Count: 4}}},
		{"single-node", cluster.SingleNode(), []cluster.NodeClass{{Spec: cluster.NodeSpec{Cores: 8, MemoryGB: 24}, Count: 1}}},
		{"ec2", ec2, ec2Classes},
		{"asymmetric", asym, asymClasses},
	}
	footprints := append(core.DefaultProbeConfigs(), params.DefaultSysConfig())
	for _, f := range fleets {
		for _, fp := range footprints {
			t.Run(fmt.Sprintf("%s/%v", f.name, fp), func(t *testing.T) {
				if got, want := f.c.Slots(fp), firstFitCount(nodesOf(f.classes), fp); got != want {
					t.Fatalf("Slots = %d, first-fit places %d", got, want)
				}
			})
		}
	}
	// A memory-bound node holds as many trials as its memory allows.
	if got := asym.Slots(params.SysConfig{Cores: 4, MemoryGB: 8}); got != 2+3*2+2*4 {
		t.Fatalf("asymmetric fleet holds %d 4c/8GB trials, want 16", got)
	}
}
