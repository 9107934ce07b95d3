package energy

import (
	"math"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

func TestAvgPowerMonotoneInCores(t *testing.T) {
	pm := DefaultPowerModel()
	prev := 0.0
	for _, cores := range []int{1, 2, 4, 8, 16} {
		p, err := pm.AvgPower(params.SysConfig{Cores: cores, MemoryGB: 8}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("power not increasing with cores at %d: %v <= %v", cores, p, prev)
		}
		prev = p
	}
}

func TestAvgPowerComputeHigherThanSync(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	compute, _ := pm.AvgPower(sys, 1.0)
	syncing, _ := pm.AvgPower(sys, 0.0)
	if compute <= syncing {
		t.Fatalf("compute power %v should exceed sync power %v", compute, syncing)
	}
	idleFloor := pm.IdleWatts
	if syncing <= idleFloor {
		t.Fatalf("sync power %v should still exceed idle %v", syncing, idleFloor)
	}
}

func TestAvgPowerValidation(t *testing.T) {
	pm := DefaultPowerModel()
	if _, err := pm.AvgPower(params.SysConfig{Cores: 0, MemoryGB: 8}, 0.5); err == nil {
		t.Fatal("invalid sysconfig accepted")
	}
	if _, err := pm.AvgPower(params.DefaultSysConfig(), 1.5); err == nil {
		t.Fatal("compute fraction > 1 accepted")
	}
	if _, err := pm.AvgPower(params.DefaultSysConfig(), -0.1); err == nil {
		t.Fatal("negative compute fraction accepted")
	}
}

func TestSeriesIntegratesToAvgTimesDuration(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	const duration = 300.0
	series, err := pm.Series(xrand.New(1), sys, 0.7, duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != int(duration)+1 {
		t.Fatalf("series length %d, want %d", len(series), int(duration)+1)
	}
	energy := Integrate(series)
	avg, _ := pm.AvgPower(sys, 0.7)
	want := avg * duration
	if math.Abs(energy-want)/want > 0.03 {
		t.Fatalf("integrated energy %v, want ~%v", energy, want)
	}
}

func TestSeriesRejectsBadDuration(t *testing.T) {
	pm := DefaultPowerModel()
	if _, err := pm.Series(xrand.New(1), params.DefaultSysConfig(), 0.5, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestTrialEnergyClosedForm(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	e, err := pm.TrialEnergy(sys, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := pm.AvgPower(sys, 0.5)
	if math.Abs(e-avg*100) > 1e-9 {
		t.Fatalf("TrialEnergy = %v, want %v", e, avg*100)
	}
	if _, err := pm.TrialEnergy(sys, 0.5, -1); err == nil {
		t.Fatal("negative duration accepted")
	}
}
