package perf

import (
	"math"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/stats"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func TestEventListHas58UniqueNames(t *testing.T) {
	names := EventNames()
	if len(names) != NumEvents || NumEvents != 58 {
		t.Fatalf("event list has %d entries, want 58", len(names))
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty event name %q", n)
		}
		seen[n] = true
	}
}

func TestEventIndexRoundTrip(t *testing.T) {
	for i, n := range EventNames() {
		if got := EventIndex(n); got != i {
			t.Fatalf("EventIndex(%q) = %d, want %d", n, got, i)
		}
	}
	if EventIndex("not-an-event") != -1 {
		t.Fatal("unknown event should index to -1")
	}
}

func TestMultiplexScale(t *testing.T) {
	// §5.3: final = raw * enabled / running.
	if got := MultiplexScale(100, 1.0, 0.5); got != 200 {
		t.Fatalf("MultiplexScale = %v, want 200", got)
	}
	if got := MultiplexScale(100, 1.0, 0); got != 0 {
		t.Fatalf("zero running time should yield 0, got %v", got)
	}
}

func profileFor(t *testing.T, w workload.Workload, h params.Hyper, sys params.SysConfig, seed uint64) Profile {
	t.Helper()
	s := NewSampler()
	p, err := s.EpochProfile(xrand.New(seed), workload.TraitsFor(w), h, sys, PhaseTrain, 60)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfilesArePositiveFinite(t *testing.T) {
	for _, w := range workload.Catalog() {
		p := profileFor(t, w, params.DefaultHyper(), params.DefaultSysConfig(), 3)
		if len(p) != NumEvents {
			t.Fatalf("profile has %d events", len(p))
		}
		for i, v := range p {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s event %s = %v", w.Name(), EventNames()[i], v)
			}
		}
	}
}

// Figure 2's property: epochs of the same workload repeat with nearly the
// same event rates.
func TestEpochsOfSameWorkloadAreStable(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	a := profileFor(t, w, params.DefaultHyper(), params.DefaultSysConfig(), 1)
	b := profileFor(t, w, params.DefaultHyper(), params.DefaultSysConfig(), 2)
	for i := range a {
		rel := math.Abs(a[i]-b[i]) / math.Max(a[i], 1e-9)
		if rel > 0.15 {
			t.Fatalf("event %s varies %.1f%% across epochs", EventNames()[i], rel*100)
		}
	}
}

// Figure 8's property: different workload families are farther apart in
// feature space than epochs of the same workload.
func TestWorkloadFamiliesAreSeparable(t *testing.T) {
	lenet := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	lstm := workload.Workload{Model: workload.LSTM, Dataset: workload.News20}

	intra := distance(
		profileFor(t, lenet, params.DefaultHyper(), params.DefaultSysConfig(), 1).Features(),
		profileFor(t, lenet, params.DefaultHyper(), params.DefaultSysConfig(), 2).Features())
	inter := distance(
		profileFor(t, lenet, params.DefaultHyper(), params.DefaultSysConfig(), 1).Features(),
		profileFor(t, lstm, params.DefaultHyper(), params.DefaultSysConfig(), 1).Features())
	if inter < intra*3 {
		t.Fatalf("inter-family distance %v not well above intra-workload %v", inter, intra)
	}
}

func TestInitPhaseDiffersFromTraining(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	s := NewSampler()
	tr := workload.TraitsFor(w)
	train, err := s.EpochProfile(xrand.New(1), tr, params.DefaultHyper(), params.DefaultSysConfig(), PhaseTrain, 60)
	if err != nil {
		t.Fatal(err)
	}
	initP, err := s.EpochProfile(xrand.New(1), tr, params.DefaultHyper(), params.DefaultSysConfig(), PhaseInit, 60)
	if err != nil {
		t.Fatal(err)
	}
	d := distance(train.Features(), initP.Features())
	if d < 1 {
		t.Fatalf("init phase indistinguishable from training (distance %v)", d)
	}
	// Init must raise memory-class events specifically.
	llc := EventIndexMust("LLC-loads")
	if initP[llc] <= train[llc] {
		t.Fatal("init phase should raise memory-hierarchy event rates")
	}
	cyc := EventIndexMust("cpu-cycles")
	if initP[cyc] >= train[cyc] {
		t.Fatal("init phase should lower compute event rates")
	}
}

func TestMissRateDropsWithLargerBatch(t *testing.T) {
	// Larger batches improve locality: misses per instruction must drop
	// (absolute rates also reflect utilisation, so the ratio is the
	// robust signal).
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	small := params.DefaultHyper()
	small.BatchSize = 32
	large := params.DefaultHyper()
	large.BatchSize = 1024
	pSmall := profileFor(t, w, small, params.DefaultSysConfig(), 5)
	pLarge := profileFor(t, w, large, params.DefaultSysConfig(), 5)
	miss := EventIndexMust("cache-misses")
	ins := EventIndexMust("instructions")
	if pLarge[miss]/pLarge[ins] >= pSmall[miss]/pSmall[ins] {
		t.Fatalf("miss rate should drop with batch 1024: %v vs %v",
			pLarge[miss]/pLarge[ins], pSmall[miss]/pSmall[ins])
	}
}

func TestMemoryPressureRaisesMemoryEvents(t *testing.T) {
	w := workload.Workload{Model: workload.LSTM, Dataset: workload.News20} // 10 GB working set
	ample := profileFor(t, w, params.DefaultHyper(), params.SysConfig{Cores: 8, MemoryGB: 32}, 5)
	starved := profileFor(t, w, params.DefaultHyper(), params.SysConfig{Cores: 8, MemoryGB: 4}, 5)
	llcMiss := EventIndexMust("LLC-load-misses")
	if starved[llcMiss] <= ample[llcMiss] {
		t.Fatalf("memory starvation should raise LLC misses: %v vs %v", starved[llcMiss], ample[llcMiss])
	}
}

func TestMoreCoresRaiseCycleEvents(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	h := params.DefaultHyper()
	h.BatchSize = 1024 // keep utilisation comparable
	at4 := profileFor(t, w, h, params.SysConfig{Cores: 4, MemoryGB: 16}, 5)
	at16 := profileFor(t, w, h, params.SysConfig{Cores: 16, MemoryGB: 16}, 5)
	cyc := EventIndexMust("cpu-cycles")
	if at16[cyc] <= at4[cyc] {
		t.Fatalf("cycles should grow with cores: %v vs %v", at16[cyc], at4[cyc])
	}
}

func TestFixedCountersLessNoisyThanMultiplexed(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	s := NewSampler()
	tr := workload.TraitsFor(w)
	r := xrand.New(9)
	const n = 200
	fixedIdx := EventIndexMust("instructions")
	muxIdx := EventIndexMust("LLC-loads")
	var fixed, mux []float64
	for k := 0; k < n; k++ {
		smp, err := s.Sample(r, tr, params.DefaultHyper(), params.DefaultSysConfig(), PhaseTrain)
		if err != nil {
			t.Fatal(err)
		}
		fixed = append(fixed, smp[fixedIdx])
		mux = append(mux, smp[muxIdx])
	}
	cv := func(xs []float64) float64 { // coefficient of variation
		m, ss := stats.Mean(xs), 0.0
		for _, x := range xs {
			ss += (x - m) * (x - m)
		}
		return math.Sqrt(ss/float64(len(xs))) / m
	}
	fixedCV, muxCV := cv(fixed), cv(mux)
	if fixedCV >= muxCV {
		t.Fatalf("fixed-counter CV %v should be below multiplexed CV %v", fixedCV, muxCV)
	}
}

func TestSampleValidation(t *testing.T) {
	s := NewSampler()
	tr := workload.TraitsFor(workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST})
	if _, err := s.Sample(xrand.New(1), tr, params.DefaultHyper(), params.DefaultSysConfig(), Phase(0)); err == nil {
		t.Fatal("invalid phase accepted")
	}
	bad := params.DefaultHyper()
	bad.BatchSize = 0
	if _, err := s.Sample(xrand.New(1), tr, bad, params.DefaultSysConfig(), PhaseTrain); err == nil {
		t.Fatal("invalid hyper accepted")
	}
	if _, err := s.Sample(xrand.New(1), tr, params.DefaultHyper(), params.SysConfig{}, PhaseTrain); err == nil {
		t.Fatal("invalid sysconfig accepted")
	}
	// EpochProfile validates for itself (once per epoch, not per sample).
	if _, err := s.EpochProfile(xrand.New(1), tr, params.DefaultHyper(), params.DefaultSysConfig(), Phase(0), 10); err == nil {
		t.Fatal("EpochProfile: invalid phase accepted")
	}
	if _, err := s.EpochProfile(xrand.New(1), tr, bad, params.DefaultSysConfig(), PhaseTrain, 10); err == nil {
		t.Fatal("EpochProfile: invalid hyper accepted")
	}
	if _, err := s.EpochProfile(xrand.New(1), tr, params.DefaultHyper(), params.SysConfig{}, PhaseTrain, 10); err == nil {
		t.Fatal("EpochProfile: invalid sysconfig accepted")
	}
}

func TestFeaturesAreLogScaledAndCentred(t *testing.T) {
	p := Profile{0, math.E - 1, 1e8}
	f := p.Features()
	mean := (f[0] + f[1] + f[2]) / 3
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("features not mean-centred: %v", f)
	}
	// Log compression: the 1e8 event must sit within ~20 of the others.
	if f[2]-f[0] > 25 {
		t.Fatalf("log scaling did not compress 1e8: %v", f)
	}
	// Relative order preserved.
	if !(f[0] < f[1] && f[1] < f[2]) {
		t.Fatalf("feature ordering broken: %v", f)
	}
}

// Scale invariance: profiles of the same workload taken at different core
// counts must stay close in feature space (the ground truth must recognise
// a workload regardless of which configuration it was profiled under).
func TestFeaturesScaleInvariantAcrossCores(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	at4 := profileFor(t, w, params.DefaultHyper(), params.SysConfig{Cores: 4, MemoryGB: 16}, 3)
	at16 := profileFor(t, w, params.DefaultHyper(), params.SysConfig{Cores: 16, MemoryGB: 16}, 3)
	sameWorkload := distance(at4.Features(), at16.Features())
	other := workload.Workload{Model: workload.LSTM, Dataset: workload.News20}
	cross := distance(
		at4.Features(),
		profileFor(t, other, params.DefaultHyper(), params.SysConfig{Cores: 4, MemoryGB: 16}, 3).Features())
	if sameWorkload*2 > cross {
		t.Fatalf("core-count change (%v) not well below workload change (%v)", sameWorkload, cross)
	}
}

// distance is the Euclidean distance between two profiles' features.
func distance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
