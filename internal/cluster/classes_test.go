package cluster

import (
	"math"
	"testing"

	"pipetune/internal/params"
)

// TestFitsErrNamesLargestShape: the largest node shape bounds what Fits
// accepts, on the paper testbed and on a mixed fleet where only the big
// class can hold the footprint.
func TestFitsErrNamesLargestShape(t *testing.T) {
	c := Paper() // 4 nodes of 32c/64GB
	if c.Fits(params.SysConfig{Cores: 48, MemoryGB: 8}) {
		t.Fatal("48 cores cannot fit any 32-core node")
	}
	if !c.Fits(params.SysConfig{Cores: 32, MemoryGB: 64}) {
		t.Fatal("full-node footprint rejected")
	}
	mixed, err := NewClasses([]NodeClass{
		{Name: "small", Spec: NodeSpec{Cores: 4, MemoryGB: 8}, Count: 3},
		{Name: "big", Spec: NodeSpec{Cores: 16, MemoryGB: 32}, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mixed.Fits(params.SysConfig{Cores: 16, MemoryGB: 32}) {
		t.Fatal("footprint of the largest shape rejected")
	}
	if mixed.Fits(params.SysConfig{Cores: 17, MemoryGB: 8}) || mixed.Fits(params.SysConfig{Cores: 4, MemoryGB: 33}) {
		t.Fatal("footprint beyond the largest shape accepted")
	}
}

func TestNewClassesValidation(t *testing.T) {
	good := NodeClass{Name: "a", Spec: NodeSpec{Cores: 8, MemoryGB: 16}, Count: 1}
	cases := []struct {
		name    string
		classes []NodeClass
	}{
		{"empty", nil},
		{"zero-count", []NodeClass{{Name: "a", Spec: NodeSpec{Cores: 8, MemoryGB: 16}}}},
		{"bad-spec", []NodeClass{{Name: "a", Spec: NodeSpec{Cores: 0, MemoryGB: 16}, Count: 1}}},
		{"bad-second-class", []NodeClass{good, {Name: "b", Spec: NodeSpec{Cores: 8, MemoryGB: 0}, Count: 1}}},
	}
	for _, tc := range cases {
		if _, err := NewClasses(tc.classes); err == nil {
			t.Errorf("%s: invalid class set accepted", tc.name)
		}
	}
	if _, err := NewClasses([]NodeClass{good}); err != nil {
		t.Fatalf("valid class rejected: %v", err)
	}
}

// TestSplitSpotRejectsNonFinite: a NaN or +Inf spot fraction or
// revocation rate passes a sign check; SplitSpot refuses them instead.
func TestSplitSpotRejectsNonFinite(t *testing.T) {
	good := NodeClass{Name: "a", Spec: NodeSpec{Cores: 8, MemoryGB: 16}, Count: 2}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := SplitSpot([]NodeClass{good}, bad, 1, func(NodeClass) float64 { return 0 }); err == nil {
			t.Errorf("SplitSpot accepted spot fraction %v", bad)
		}
		if _, err := SplitSpot([]NodeClass{good}, 0.5, bad, func(NodeClass) float64 { return 0 }); err == nil {
			t.Errorf("SplitSpot accepted revocation rate %v", bad)
		}
	}
}

// TestEC2FleetClasses: the Figure 1 fleet splits each shape into
// on-demand and spot classes, prices them at their market rates, and
// quotes the spot market's revocation rate on the spot classes only.
func TestEC2FleetClasses(t *testing.T) {
	classes, err := EC2Fleet(2, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 6 {
		t.Fatalf("%d classes, want 3 shapes x {on-demand, spot}", len(classes))
	}
	spot, onDemand, hourly := 0, 0, 0.0
	for i, nc := range classes {
		want := 0.0
		if i%2 == 1 { // each shape contributes one on-demand then one spot class
			want = 4
		}
		if nc.RevocationsPerHour != want {
			t.Fatalf("class %q rate %v, want %v", nc.Name, nc.RevocationsPerHour, want)
		}
		if nc.Spot {
			spot += nc.Count
		} else {
			onDemand += nc.Count
		}
		hourly += float64(nc.Count) * nc.HourlyUSD
	}
	if spot != 3 || onDemand != 3 {
		t.Fatalf("spot/on-demand = %d/%d, want 3/3", spot, onDemand)
	}
	// 0.80+0.24 + 2.304+0.6912 + 4.608+1.3824 $/h across the six nodes.
	if math.Abs(hourly-10.0256) > 1e-9 {
		t.Fatalf("fleet rate %v $/h, want 10.0256", hourly)
	}
	// Spot classes must be strictly cheaper than their on-demand shape.
	for i := 0; i < len(classes); i += 2 {
		od, sp := classes[i], classes[i+1]
		if !sp.Spot || od.Spot || sp.HourlyUSD >= od.HourlyUSD {
			t.Fatalf("shape %d market split wrong: %+v vs %+v", i/2, od, sp)
		}
		if sp.Spec != od.Spec || sp.SpeedFactor != od.SpeedFactor {
			t.Fatalf("spot class %q changed the hardware: %+v vs %+v", sp.Name, sp, od)
		}
	}

	allOD, err := EC2Fleet(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(allOD) != 3 {
		t.Fatalf("all-on-demand fleet has %d classes, want 3", len(allOD))
	}
	for _, nc := range allOD {
		if nc.Spot || nc.RevocationsPerHour != 0 {
			t.Fatalf("on-demand fleet has a spot class: %+v", nc)
		}
	}

	if _, err := EC2Fleet(0, 0, 0); err == nil {
		t.Error("zero nodes per shape accepted")
	}
	if _, err := EC2Fleet(1, 1.5, 0); err == nil {
		t.Error("spot fraction > 1 accepted")
	}
}
