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
		{"negative-speed", []NodeClass{func() NodeClass { c := good; c.SpeedFactor = -1; return c }()}},
		{"negative-price", []NodeClass{func() NodeClass { c := good; c.HourlyUSD = -1; return c }()}},
		{"negative-rate", []NodeClass{func() NodeClass { c := good; c.RevocationsPerHour = -1; return c }()}},
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

// TestNewClassesRejectsNonFinite: a NaN or +Inf speed, price or rate
// passes a sign check, and then a job renders a NaN cost its result JSON
// cannot carry, or runs at infinite speed in zero time. NewClasses and
// SplitSpot refuse them instead.
func TestNewClassesRejectsNonFinite(t *testing.T) {
	good := NodeClass{Name: "a", Spec: NodeSpec{Cores: 8, MemoryGB: 16}, Count: 2}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for name, set := range map[string]func(*NodeClass){
			"speed": func(c *NodeClass) { c.SpeedFactor = bad },
			"price": func(c *NodeClass) { c.HourlyUSD = bad },
			"rate":  func(c *NodeClass) { c.RevocationsPerHour = bad },
		} {
			c := good
			set(&c)
			if _, err := NewClasses([]NodeClass{c}); err == nil {
				t.Errorf("NewClasses accepted %s %v", name, bad)
			}
		}
		if _, err := SplitSpot([]NodeClass{good}, bad, 1, func(NodeClass) float64 { return 0 }); err == nil {
			t.Errorf("SplitSpot accepted spot fraction %v", bad)
		}
		if _, err := SplitSpot([]NodeClass{good}, 0.5, bad, func(NodeClass) float64 { return 0 }); err == nil {
			t.Errorf("SplitSpot accepted revocation rate %v", bad)
		}
	}
}

// TestEC2FleetComposition: the Figure 1 fleet splits each shape into
// on-demand and spot classes, prices them at their market rates, and
// quotes the spot market's revocation rate on the spot classes only.
func TestEC2FleetComposition(t *testing.T) {
	classes, err := EC2Fleet(2, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 6 {
		t.Fatalf("%d classes, want 3 shapes x {on-demand, spot}", len(classes))
	}
	c, err := NewClasses(classes)
	if err != nil {
		t.Fatal(err)
	}
	spot, onDemand := c.SpotCounts()
	if spot != 3 || onDemand != 3 {
		t.Fatalf("spot/on-demand = %d/%d, want 3/3", spot, onDemand)
	}
	for i, nc := range classes {
		want := 0.0
		if i%2 == 1 { // each shape contributes one on-demand then one spot class
			want = 4
		}
		if nc.RevocationsPerHour != want {
			t.Fatalf("class %q rate %v, want %v", nc.Name, nc.RevocationsPerHour, want)
		}
	}
	// 0.80+0.24 + 2.304+0.6912 + 4.608+1.3824 $/h across the six nodes.
	if got := c.HourlyUSD(); math.Abs(got-10.0256) > 1e-9 {
		t.Fatalf("fleet rate %v $/h, want 10.0256", got)
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

// TestStatusReportsClasses: the health/fleet surface mirrors the class
// declarations, and the legacy constructors surface one anonymous class.
func TestStatusReportsClasses(t *testing.T) {
	c, err := NewClasses([]NodeClass{
		{Name: "a", Spec: NodeSpec{Cores: 8, MemoryGB: 16}, Count: 2, HourlyUSD: 0.5},
		{Name: "b", Spec: NodeSpec{Cores: 32, MemoryGB: 64}, Count: 1,
			Spot: true, SpeedFactor: 2, RevocationsPerHour: 1, HourlyUSD: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	want := []ClassStatus{
		{Name: "a", Count: 2, Cores: 8, MemoryGB: 16, SpeedFactor: 1, HourlyUSD: 0.5},
		{Name: "b", Count: 1, Cores: 32, MemoryGB: 64, Spot: true, SpeedFactor: 2, RevocationsPerHour: 1, HourlyUSD: 1},
	}
	if len(st) != len(want) {
		t.Fatalf("%d status rows, want %d", len(st), len(want))
	}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("status row %d = %+v, want %+v", i, st[i], want[i])
		}
	}

	legacy := Paper()
	lst := legacy.Status()
	if len(lst) != 1 || lst[0].Name != "" || lst[0].Count != 4 {
		t.Fatalf("legacy cluster status %+v, want one anonymous 4-node class", lst)
	}
	if s, od := legacy.SpotCounts(); s != 0 || od != 4 {
		t.Fatalf("legacy spot counts %d/%d, want 0/4", s, od)
	}
}
