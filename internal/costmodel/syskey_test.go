package costmodel_test

import (
	"reflect"
	"slices"
	"testing"

	"pipetune/internal/core"
	"pipetune/internal/costmodel"
	"pipetune/internal/params"
	"pipetune/internal/workload"
)

// systems is every configuration PipeTune's controller runs an epoch on:
// the probe grid and the base configuration, each once.
func systems() []params.SysConfig {
	out := core.DefaultProbeConfigs()
	if base := params.DefaultSysConfig(); !slices.Contains(out, base) {
		out = append(out, base)
	}
	return out
}

// TestSysKeyIsWhatTheCostReads pins the key the controller hands system
// tuning on by against the model it summarises: over the catalog × every
// PaperHyperSpace point × every configuration the controller runs, two
// points with one SysKey price bit-identically — epoch breakdown, epoch
// duration, working set and, at one epoch budget, trial duration. A cost
// term that starts reading the learning rate or dropout fails here instead
// of silently handing a trial the system tuning of one that costs more.
func TestSysKeyIsWhatTheCostReads(t *testing.T) {
	m := costmodel.Default()
	space := params.PaperHyperSpace()
	type price struct {
		bd           costmodel.Breakdown
		epoch, memGB float64
	}
	type class struct {
		key params.Hyper
		sys params.SysConfig
	}
	type trialClass struct {
		class
		epochs int
	}
	for _, w := range workload.Catalog() {
		tr := workload.TraitsFor(w)
		prices := map[class]price{}
		trials := map[trialClass]float64{}
		for i := 0; i < space.Size(); i++ {
			h := space.At(i).ApplyHyper(params.DefaultHyper())
			for _, sys := range systems() {
				bd, err := m.EpochBreakdown(tr, h, sys)
				if err != nil {
					t.Fatal(err)
				}
				epoch, err := m.EpochDuration(tr, h, sys)
				if err != nil {
					t.Fatal(err)
				}
				trial, err := m.TrialDuration(tr, h, sys)
				if err != nil {
					t.Fatal(err)
				}
				p := price{bd: bd, epoch: epoch, memGB: costmodel.MemoryRequiredGB(tr, h)}
				c := class{key: costmodel.SysKey(h), sys: sys}
				if prev, ok := prices[c]; !ok {
					prices[c] = p
				} else if p != prev {
					t.Fatalf("%s on %v: %v prices %+v, another point of its key %+v", w.Name(), sys, h, p, prev)
				}
				tc := trialClass{class: c, epochs: h.Epochs}
				if prev, ok := trials[tc]; !ok {
					trials[tc] = trial
				} else if trial != prev {
					t.Fatalf("%s on %v: %v runs a %v s trial, another point of its key %v s", w.Name(), sys, h, trial, prev)
				}
			}
		}
		// Three batch sizes × three embedding widths: the key keeps both
		// and nothing else, so 243 points fall into 9 classes per system.
		if want := 9 * len(systems()); len(prices) != want {
			t.Fatalf("%s: %d cost classes, want %d", w.Name(), len(prices), want)
		}
	}
}

// TestSysKeyKeepsWhatMovesTheCost is the other half: a PaperHyperSpace
// dimension that SysKey keeps moves the epoch duration on some workload
// and configuration, and one it drops moves it on none — so the key is no
// coarser than the model and no finer than it needs to be.
func TestSysKeyKeepsWhatMovesTheCost(t *testing.T) {
	m := costmodel.Default()
	base := params.DefaultHyper()
	kept := map[string]bool{}
	for _, dim := range params.PaperHyperSpace() {
		keeps, moves := false, false
		for _, v := range dim.Values[1:] {
			a := params.Assignment{dim.Name: dim.Values[0]}.ApplyHyper(base)
			b := params.Assignment{dim.Name: v}.ApplyHyper(base)
			if costmodel.SysKey(a) != costmodel.SysKey(b) {
				keeps = true
			}
			for _, w := range workload.Catalog() {
				tr := workload.TraitsFor(w)
				for _, sys := range systems() {
					da, err := m.EpochDuration(tr, a, sys)
					if err != nil {
						t.Fatal(err)
					}
					db, err := m.EpochDuration(tr, b, sys)
					if err != nil {
						t.Fatal(err)
					}
					if da != db {
						moves = true
					}
				}
			}
		}
		if keeps != moves {
			t.Errorf("%s: SysKey keeps it = %v, epoch duration moves with it = %v", dim.Name, keeps, moves)
		}
		kept[dim.Name] = keeps
	}
	want := map[string]bool{
		params.KeyBatchSize: true, params.KeyEmbeddingDim: true,
		params.KeyLearningRate: false, params.KeyDropout: false, params.KeyEpochs: false,
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("SysKey keeps %v, want batch size and embedding width only", kept)
	}
}
