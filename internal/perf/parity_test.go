package perf_test

import (
	"math"
	"testing"

	"pipetune/internal/core"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// TestEpochProfileMatchesMeanOfSamples pins EpochProfile's RNG contract
// against its definition: over the Table 3 catalog × the probe grid ×
// both phases × windows of 1, 12 and the capped 30 samples, the profile is
// bitwise the mean of that many consecutive Samples, and it leaves the
// source exactly where they do — same draws, same order, same float
// operations.
func TestEpochProfileMatchesMeanOfSamples(t *testing.T) {
	s := perf.NewSampler()
	h := params.DefaultHyper()
	windows := []struct {
		seconds float64
		n       int
	}{{0.4, 1}, {12.7, 12}, {600, 30}}
	for _, w := range workload.Catalog() {
		tr := workload.TraitsFor(w)
		for _, sys := range core.DefaultProbeConfigs() {
			for _, phase := range []perf.Phase{perf.PhaseInit, perf.PhaseTrain} {
				for _, win := range windows {
					seed := uint64(sys.Cores*1000 + sys.MemoryGB*10 + win.n)
					got, want := xrand.New(seed), xrand.New(seed)

					profile, err := s.EpochProfile(got, tr, h, sys, phase, win.seconds)
					if err != nil {
						t.Fatal(err)
					}
					mean := make(perf.Profile, perf.NumEvents)
					for k := 0; k < win.n; k++ {
						smp, err := s.Sample(want, tr, h, sys, phase)
						if err != nil {
							t.Fatal(err)
						}
						for i, v := range smp {
							mean[i] += v
						}
					}
					for i := range mean {
						mean[i] /= float64(win.n)
						if math.Float64bits(profile[i]) != math.Float64bits(mean[i]) {
							t.Fatalf("%s %v phase %d n=%d: event %d = %v, mean of samples = %v",
								w.Name(), sys, phase, win.n, i, profile[i], mean[i])
						}
					}
					if got.Uint64() != want.Uint64() {
						t.Fatalf("%s %v phase %d n=%d: EpochProfile consumed a different number of draws than %d Samples",
							w.Name(), sys, phase, win.n, win.n)
					}
				}
			}
		}
	}
}
