// Package energy models the power/energy measurement pipeline of §7.1.1:
// a network-connected LINDY iPower Control PDU reports active power at 1 W
// resolution and 1.5% precision over an HTTP interface, the harness polls it
// every second, and energy is the trapezoidal integral of the samples
// (§3.2).
//
// The package models that pipeline instead of polling a unit: the power
// model (idle + per-active-core dynamic + memory draw, with lower draw
// during synchronisation phases) and a 1 Hz sample-series generator whose
// trapezoid the trainer integrates.
package energy

import (
	"fmt"
	"math"

	"pipetune/internal/params"
	"pipetune/internal/stats"
	"pipetune/internal/xrand"
)

// PowerModel holds the node power calibration.
type PowerModel struct {
	// IdleWatts is the node's floor draw.
	IdleWatts float64
	// DynamicPerCoreWatts is the additional draw of one fully busy core.
	DynamicPerCoreWatts float64
	// MemWattsPerGB is the draw of allocated (powered) memory.
	MemWattsPerGB float64
	// SyncActivity is the core utilisation during synchronisation phases
	// relative to compute phases (barriers keep cores mostly idle).
	SyncActivity float64
}

// DefaultPowerModel returns constants sized for the paper's Intel E3-class
// nodes (~50 W idle, ~110 W busy at 8 cores).
func DefaultPowerModel() PowerModel {
	return PowerModel{
		IdleWatts:           52,
		DynamicPerCoreWatts: 6.5,
		MemWattsPerGB:       0.25,
		SyncActivity:        0.4,
	}
}

// AvgPower returns the node's mean active power while running a trial that
// spends computeFrac of its time computing (and the rest synchronising)
// on the given system configuration.
func (pm PowerModel) AvgPower(sys params.SysConfig, computeFrac float64) (float64, error) {
	if err := sys.Validate(); err != nil {
		return 0, fmt.Errorf("energy: %w", err)
	}
	if computeFrac < 0 || computeFrac > 1 {
		return 0, fmt.Errorf("energy: compute fraction %v out of [0,1]", computeFrac)
	}
	util := computeFrac + pm.SyncActivity*(1-computeFrac)
	return pm.IdleWatts +
		float64(sys.Cores)*pm.DynamicPerCoreWatts*util +
		float64(sys.MemoryGB)*pm.MemWattsPerGB, nil
}

// Series generates 1 Hz power samples (length ceil(duration)+1, so the
// trapezoid over them spans the full window) around the model's average
// power, with ±2% sampling jitter drawn from r.
func (pm PowerModel) Series(r *xrand.Source, sys params.SysConfig, computeFrac, duration float64) ([]float64, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("energy: non-positive duration %v", duration)
	}
	avg, err := pm.AvgPower(sys, computeFrac)
	if err != nil {
		return nil, err
	}
	n := int(math.Ceil(duration)) + 1
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Jitter(avg, 0.02)
	}
	return out, nil
}

// Integrate returns the energy in joules of a 1 Hz power series, using the
// trapezoidal rule exactly as §3.2 describes.
func Integrate(series []float64) float64 {
	return stats.TrapezoidUniform(series, 1)
}

// TrialEnergy is the closed-form equivalent of Series+Integrate without
// sampling noise: average power times duration. Used where the experiment
// needs deterministic totals.
func (pm PowerModel) TrialEnergy(sys params.SysConfig, computeFrac, duration float64) (float64, error) {
	if duration < 0 {
		return 0, fmt.Errorf("energy: negative duration %v", duration)
	}
	avg, err := pm.AvgPower(sys, computeFrac)
	if err != nil {
		return 0, err
	}
	return avg * duration, nil
}
