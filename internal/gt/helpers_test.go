package gt

import (
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

var (
	lenetMNIST = workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	cnnNews    = workload.Workload{Model: workload.CNN, Dataset: workload.News20}
)

// featuresOf produces a realistic profile feature vector for a workload.
func featuresOf(t testing.TB, w workload.Workload, seed uint64) []float64 {
	t.Helper()
	s := perf.NewSampler()
	p, err := s.EpochProfile(xrand.New(seed), workload.TraitsFor(w),
		params.DefaultHyper(), params.DefaultSysConfig(), perf.PhaseTrain, 30)
	if err != nil {
		t.Fatal(err)
	}
	return p.Features()
}

// probeGrid is the test stand-in for core.DefaultProbeConfigs.
func probeGrid() []params.SysConfig {
	return []params.SysConfig{
		{Cores: 4, MemoryGB: 8},
		{Cores: 8, MemoryGB: 8},
		{Cores: 16, MemoryGB: 8},
		{Cores: 4, MemoryGB: 32},
		{Cores: 8, MemoryGB: 32},
		{Cores: 16, MemoryGB: 32},
	}
}

// gtEntry fabricates a distinguishable entry.
func gtEntry(i int) Entry {
	return Entry{
		Features: []float64{float64(i), float64(i % 7), float64(i % 3), 1},
		BestSys:  probeGrid()[i%len(probeGrid())],
		Metric:   0.5 + float64(i%10)/100,
	}
}

// familyEntry fabricates an entry whose features sit in one of nFamilies
// well-separated clusters — the synthetic analogue of distinct workload
// families.
func familyEntry(family, i, nFamilies int) Entry {
	base := float64(family * 100)
	jitter := float64(i%5) * 0.2
	return Entry{
		Features: []float64{base + jitter, base - jitter, float64(family), 1},
		BestSys:  probeGrid()[family%len(probeGrid())],
		Metric:   0.5,
	}
}

// eachStore runs the Store contract suite's subtest against a fresh
// store. The subtest is named for NewSharded, the constructor the
// end-to-end benchmark builds its store with, which it goes through.
func eachStore(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("sharded", func(t *testing.T) { fn(t, NewSharded(DefaultConfig(), 1)) })
}

// wideFeatures fabricates a 58-dimension profile (the PMU feature width
// real trials produce) for one of several well-separated families.
func wideFeatures(family, i int) []float64 {
	f := make([]float64, 58)
	for j := range f {
		f[j] = float64((family*37+j*13)%97) * 10
	}
	// Per-sample jitter on a few dimensions, like seed-to-seed profile
	// noise within one workload family.
	for _, j := range []int{3, 17, 29, 41} {
		f[j] += float64(i%7) * 0.3
	}
	return f
}

func wideEntry(family, i int) Entry {
	return Entry{
		Features: wideFeatures(family, i),
		BestSys:  probeGrid()[family%len(probeGrid())],
		Metric:   0.5,
	}
}
