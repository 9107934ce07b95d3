// Package energy models the power/energy measurement pipeline of §7.1.1:
// a network-connected LINDY iPower Control PDU reports active power at 1 W
// resolution and 1.5% precision over an HTTP interface, the harness polls it
// every second, and energy is the trapezoidal integral of the samples
// (§3.2).
//
// The package provides the power model (idle + per-active-core dynamic +
// memory draw, with lower draw during synchronisation phases), a 1 Hz
// sample-series generator, and an HTTP PDU simulator (cmd/pdusim serves
// it) reporting at the unit's 1 W quantisation.
package energy

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

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

// PDU simulates a LINDY iPower Control 2x6M power distribution unit: 12
// outlets across 2 banks, 1 W reporting resolution, 1.5% measurement
// precision, queried over HTTP.
type PDU struct {
	mu      sync.Mutex
	outlets [12]float64
	noise   *xrand.Source
}

// NewPDU returns a PDU with all outlets at 0 W.
func NewPDU(seed uint64) *PDU {
	return &PDU{noise: xrand.New(seed)}
}

// NumOutlets is the outlet count of the 2x6M model.
const NumOutlets = 12

// SetPower sets the true draw on an outlet (what the attached node pulls).
func (p *PDU) SetPower(outlet int, watts float64) error {
	if outlet < 0 || outlet >= NumOutlets {
		return fmt.Errorf("energy: outlet %d out of range [0,%d)", outlet, NumOutlets)
	}
	if watts < 0 {
		return errors.New("energy: negative power")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outlets[outlet] = watts
	return nil
}

// Read returns the measured power on an outlet: true power disturbed by the
// 1.5% precision and quantised to 1 W, as the real unit reports.
func (p *PDU) Read(outlet int) (int, error) {
	if outlet < 0 || outlet >= NumOutlets {
		return 0, fmt.Errorf("energy: outlet %d out of range [0,%d)", outlet, NumOutlets)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.noise.Jitter(p.outlets[outlet], 0.015) + 0.5), nil
}

// readTotal returns the measured sum over all outlets.
func (p *PDU) readTotal() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0.0
	for _, w := range p.outlets {
		total += p.noise.Jitter(w, 0.015)
	}
	return int(total + 0.5)
}

// powerResponse is the PDU's JSON wire format.
type powerResponse struct {
	Outlet int `json:"outlet"` // -1 for the aggregate reading
	Watts  int `json:"watts"`
}

// ServeHTTP implements the PDU's HTTP interface:
//
//	GET /power            -> aggregate active power
//	GET /power?outlet=N   -> one outlet's active power
func (p *PDU) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || r.URL.Path != "/power" {
		http.NotFound(w, r)
		return
	}
	resp := powerResponse{Outlet: -1}
	if q := r.URL.Query().Get("outlet"); q != "" {
		outlet, err := strconv.Atoi(q)
		if err != nil {
			http.Error(w, "bad outlet", http.StatusBadRequest)
			return
		}
		watts, err := p.Read(outlet)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp = powerResponse{Outlet: outlet, Watts: watts}
	} else {
		resp.Watts = p.readTotal()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing further to do.
		return
	}
}
