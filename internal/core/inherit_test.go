package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/xrand"
)

// scriptStore is a counting gt.Store: Lookup answers what the test scripted
// and every Lookup and Add is recorded. The embedded real store serves the
// rest of the interface.
type scriptStore struct {
	gt.Store
	answer  *params.SysConfig // nil: every lookup misses
	lookups int
	adds    []gt.Entry
}

func newScriptStore(answer *params.SysConfig) *scriptStore {
	return &scriptStore{Store: gt.NewMemory(gt.DefaultConfig()), answer: answer}
}

func (s *scriptStore) Lookup([]float64) (params.SysConfig, bool) {
	s.lookups++
	if s.answer == nil {
		return params.SysConfig{}, false
	}
	return *s.answer, true
}

func (s *scriptStore) Add(e gt.Entry) error {
	s.adds = append(s.adds, e)
	return nil
}

var (
	sysBase = params.DefaultSysConfig()
	sysA    = params.SysConfig{Cores: 4, MemoryGB: 8}
	sysB    = params.SysConfig{Cores: 8, MemoryGB: 32}
	sysC    = params.SysConfig{Cores: 16, MemoryGB: 8}
	sysD    = params.SysConfig{Cores: 4, MemoryGB: 32}
	sysG    = params.SysConfig{Cores: 16, MemoryGB: 32} // the scripted ground-truth answer
)

// attempt is what one trial body saw: the configuration it started on, the
// configuration each epoch ran on and the directive each epoch got back.
type attempt struct {
	start      params.SysConfig
	ran        []params.SysConfig
	directives []*params.SysConfig
}

// drive plays a trial body against the controller the way the trainer does:
// `epochs` epochs whose duration is cost[sys], each directive applied to the
// next epoch. It does not call Finish.
func drive(t *testing.T, id, epochs int, obs trainer.EpochObserver, start params.SysConfig, cost map[params.SysConfig]float64) attempt {
	t.Helper()
	profile := sampleProfile(t, lenetMNIST)
	a := attempt{start: start}
	cur := start
	for e := 1; e <= epochs; e++ {
		d, ok := cost[cur]
		if !ok {
			t.Fatalf("trial %d epoch %d ran on unpriced configuration %v", id, e, cur)
		}
		next := obs.OnEpochEnd(0, lenetMNIST, params.DefaultHyper(), makeEpoch(e, cur, d, d*10, profile))
		a.ran = append(a.ran, cur)
		a.directives = append(a.directives, next)
		if next != nil {
			cur = *next
		}
	}
	return a
}

// trial registers, drives and finishes one trial of the default
// hyperparameters for `epochs` epochs.
func trial(t *testing.T, ctrl *Controller, id, epochs int, cost map[params.SysConfig]float64) attempt {
	t.Helper()
	h := params.DefaultHyper()
	h.Epochs = epochs // a rung's budget: not part of the configuration's key
	return trialOf(t, ctrl, id, h, cost)
}

// trialOf registers, drives and finishes one trial of h for h.Epochs epochs.
func trialOf(t *testing.T, ctrl *Controller, id int, h params.Hyper, cost map[params.SysConfig]float64) attempt {
	t.Helper()
	obs, start := ctrl.ObserverFor(id, h, sysBase)
	a := drive(t, id, h.Epochs, obs, start, cost)
	ctrl.Finish(id, nil)
	return a
}

// twinOf returns a cost twin of the default hyperparameters: another
// learning rate and dropout, the same batch size and embedding width.
func twinOf(epochs int) params.Hyper {
	h := params.DefaultHyper()
	h.LearningRate, h.Dropout, h.Epochs = 0.1, 0.5, epochs
	return h
}

var gridCost = map[params.SysConfig]float64{sysBase: 100, sysA: 60, sysB: 150, sysC: 70, sysD: 90, sysG: 80}

func TestSuccessorOfSettledTrialKeepsItsConfiguration(t *testing.T) {
	store := newScriptStore(nil)
	ctrl := NewController(store)
	ctrl.Probes = []params.SysConfig{sysA, sysB}

	pred := trial(t, ctrl, 1, 4, gridCost) // base, A, B, then settled on A
	if got := pred.ran; !reflect.DeepEqual(got, []params.SysConfig{sysBase, sysA, sysB, sysA}) {
		t.Fatalf("predecessor ran on %v", got)
	}
	succ := trial(t, ctrl, 2, 12, gridCost)
	if succ.start != sysA {
		t.Fatalf("successor started on %v, want the settled %v", succ.start, sysA)
	}
	for e, sys := range succ.ran {
		if sys != sysA || succ.directives[e] != nil {
			t.Fatalf("successor epoch %d ran on %v with directive %v, want %v and none", e+1, sys, succ.directives[e], sysA)
		}
	}
	if store.lookups != 1 {
		t.Fatalf("%d lookups, want the predecessor's 1", store.lookups)
	}
	if len(store.adds) != 1 {
		t.Fatalf("%d ground-truth adds, want 1: the successor learned nothing new", len(store.adds))
	}
	want := Counts{Trials: 2, Inheriting: 1, ProfileEpochs: 1, ProbeEpochs: 2, AppliedEpochs: 13, Lookups: 1}
	if got := ctrl.Counts(); got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
}

func TestSuccessorValidatesInheritedGroundTruthHit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		costG  float64
		expect *params.SysConfig // first directive of the successor
	}{
		{"regresses", 150, &sysA}, // > 1.10 × the inherited baseline: probe
		{"holds", 80, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newScriptStore(&sysG)
			ctrl := NewController(store)
			ctrl.Probes = []params.SysConfig{sysA}
			cost := map[params.SysConfig]float64{sysBase: 100, sysA: 60, sysG: tc.costG}

			// One epoch: profiled, hit, never ran on the answer.
			if pred := trial(t, ctrl, 1, 1, cost); *pred.directives[0] != sysG {
				t.Fatalf("predecessor got %v, want the hit %v", pred.directives[0], sysG)
			}
			if len(store.adds) != 0 {
				t.Fatal("a trial that compared nothing fed the ground truth")
			}
			succ := trial(t, ctrl, 2, 3, cost)
			if succ.start != sysG {
				t.Fatalf("successor started on %v, want the unvalidated hit %v", succ.start, sysG)
			}
			if got := succ.directives[0]; !reflect.DeepEqual(got, tc.expect) {
				t.Fatalf("validation epoch answered %v, want %v", got, tc.expect)
			}
			if store.lookups != 1 {
				t.Fatalf("%d lookups, want 1: a successor does not ask again", store.lookups)
			}
			if c := ctrl.Counts(); c.ProfileEpochs != 1 {
				t.Fatalf("%d profile epochs, want the predecessor's 1", c.ProfileEpochs)
			}
			// The successor compared base against G: that is new, once.
			if len(store.adds) != 1 {
				t.Fatalf("%d adds after validation, want 1", len(store.adds))
			}
			trial(t, ctrl, 3, 9, cost)
			if len(store.adds) != 1 {
				t.Fatalf("%d adds after a third rung that measured nothing new, want 1", len(store.adds))
			}
		})
	}
}

func TestSuccessorResumesProbingAfterAskingAgain(t *testing.T) {
	store := newScriptStore(nil)
	ctrl := NewController(store)
	ctrl.Probes = []params.SysConfig{sysA, sysB, sysC, sysD}

	pred := trial(t, ctrl, 1, 3, gridCost) // base, A, B; C was next
	if got := pred.ran; !reflect.DeepEqual(got, []params.SysConfig{sysBase, sysA, sysB}) {
		t.Fatalf("predecessor ran on %v", got)
	}
	h := params.DefaultHyper()
	obs, start := ctrl.ObserverFor(2, h, sysBase)
	if store.lookups != 2 {
		t.Fatalf("%d lookups once the successor is registered, want 2: it asks again first", store.lookups)
	}
	if start != sysC {
		t.Fatalf("successor started on %v, want the next unmeasured probe %v", start, sysC)
	}
	succ := drive(t, 2, 4, obs, start, gridCost)
	ctrl.Finish(2, nil)
	// C, D are measured, then the grid is exhausted: settle on A (60).
	if got := succ.ran; !reflect.DeepEqual(got, []params.SysConfig{sysC, sysD, sysA, sysA}) {
		t.Fatalf("successor ran on %v", got)
	}
	if store.lookups != 2 {
		t.Fatalf("%d lookups, want 2", store.lookups)
	}
	if len(store.adds) != 2 {
		t.Fatalf("%d adds, want 2: each trial measured configurations the other had not", len(store.adds))
	}

	// The same, with a store that has learned in between: the successor
	// starts on the answer and validates it against the inherited baseline.
	store = newScriptStore(nil)
	ctrl = NewController(store)
	ctrl.Probes = []params.SysConfig{sysA, sysB, sysC, sysD}
	trial(t, ctrl, 1, 3, gridCost)
	store.answer = &sysG
	succ = trial(t, ctrl, 2, 2, gridCost)
	if succ.start != sysG || succ.directives[0] != nil {
		t.Fatalf("successor started on %v with first directive %v, want %v validated", succ.start, succ.directives[0], sysG)
	}
}

func TestMaxProbeEpochsCountsTheConfiguration(t *testing.T) {
	ctrl := NewController(newScriptStore(nil))
	ctrl.MaxProbeEpochs = 3
	ctrl.Probes = []params.SysConfig{sysA, sysB, sysC, sysD}
	cost := map[params.SysConfig]float64{sysBase: 100, sysA: 90, sysB: 80, sysC: 70, sysD: 60}
	trial(t, ctrl, 1, 2, cost) // profile + 1 probe epoch, second probe pending
	succ := trial(t, ctrl, 2, 4, cost)
	// Probe epochs 2 and 3 of the configuration, then settled on the best
	// of the three probes measured; D is never tried.
	want := []params.SysConfig{sysB, sysC, sysC, sysC}
	if !reflect.DeepEqual(succ.ran, want) {
		t.Fatalf("successor ran on %v, want %v", succ.ran, want)
	}
}

// TestCostTwinInALaterBatchStartsOnItsPredecessorsNext: a trial that
// trains other hyperparameters at the same cost as a finished one
// (costmodel.SysKey) continues its tuning as a promoted survivor would —
// no profile epoch, no lookup, no ground-truth entry for what it did not
// learn — and a trial of another batch size or embedding width does not.
func TestCostTwinInALaterBatchStartsOnItsPredecessorsNext(t *testing.T) {
	store := newScriptStore(nil)
	ctrl := NewController(store)
	ctrl.Probes = []params.SysConfig{sysA, sysB}

	trial(t, ctrl, 1, 4, gridCost) // base, A, B, then settled on A
	twin := trialOf(t, ctrl, 2, twinOf(3), gridCost)
	if twin.start != sysA || !reflect.DeepEqual(twin.ran, []params.SysConfig{sysA, sysA, sysA}) {
		t.Fatalf("cost twin started on %v and ran on %v, want the settled %v throughout", twin.start, twin.ran, sysA)
	}
	if c := ctrl.Counts(); c.ProfileEpochs != 1 || c.Lookups != 1 || store.lookups != 1 {
		t.Fatalf("cost twin profiled or asked: %+v, %d store lookups", c, store.lookups)
	}
	// The twin's survivor continues what the twin filed: it inherits but is
	// no twin. The default hyperparameters after it are a twin again.
	trialOf(t, ctrl, 3, twinOf(5), gridCost)
	trial(t, ctrl, 4, 2, gridCost)

	larger := twinOf(2)
	larger.BatchSize = 256
	wider := params.DefaultHyper()
	wider.EmbeddingDim, wider.Epochs = 300, 2
	for i, h := range []params.Hyper{larger, wider} {
		a := trialOf(t, ctrl, 5+i, h, gridCost)
		if a.start != sysBase || *a.directives[0] != sysA {
			t.Fatalf("%v started on %v with first directive %v, want a profile epoch on the base, then probing", h, a.start, a.directives[0])
		}
	}
	want := Counts{Trials: 6, Inheriting: 3, CostTwins: 2, ProfileEpochs: 3, ProbeEpochs: 4, AppliedEpochs: 11, Lookups: 3}
	if got := ctrl.Counts(); got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
	if len(store.adds) != 3 {
		t.Fatalf("%d ground-truth adds, want 3: one per trial that profiled and compared", len(store.adds))
	}
}

// TestSameKeyTrialsInOneBatchStartBlank: trials of one system-cost key
// registered before any of them finishes all start from what finished
// before their batch — here nothing — and the key keeps the later
// completion for the next batch.
func TestSameKeyTrialsInOneBatchStartBlank(t *testing.T) {
	store := newScriptStore(nil)
	ctrl := NewController(store)
	ctrl.Probes = []params.SysConfig{sysA, sysB, sysC}

	h := params.DefaultHyper()
	h.Epochs = 3
	obs1, start1 := ctrl.ObserverFor(1, twinOf(2), sysBase)
	obs2, start2 := ctrl.ObserverFor(2, h, sysBase)
	if start1 != sysBase || start2 != sysBase {
		t.Fatalf("same-batch trials started on %v and %v, want the base", start1, start2)
	}
	drive(t, 1, 2, obs1, start1, gridCost) // base, A; B next
	drive(t, 2, 3, obs2, start2, gridCost) // base, A, B; C next
	ctrl.Finish(2, nil)
	ctrl.Finish(1, nil)
	if c := ctrl.Counts(); c.ProfileEpochs != 2 || c.Lookups != 2 || c.Inheriting != 0 || c.CostTwins != 0 {
		t.Fatalf("counts %+v, want two blank trials that each profiled and asked", c)
	}
	// The next batch continues trial 1's state, the later completion: after
	// asking again it probes B, which trial 2 measured and trial 1 did not.
	next := trial(t, ctrl, 3, 1, gridCost)
	if next.start != sysB {
		t.Fatalf("next batch started on %v, want %v from the later completion", next.start, sysB)
	}
	if c := ctrl.Counts(); c.CostTwins != 1 || c.Lookups != 3 {
		t.Fatalf("counts %+v, want one cost twin that asked again", c)
	}
}

// twinSearcher proposes every point of a tiny grid twice per batch — two
// trials with one configuration key — first at a third of the budget, then
// at the full budget: successive halving in which everyone survives.
type twinSearcher struct {
	points []params.Assignment
	rung   int
	nextID int
}

func (s *twinSearcher) Next() []search.Suggestion {
	if s.rung == 2 {
		return nil
	}
	frac := []float64{1.0 / 3, 1}[s.rung]
	s.rung++
	var out []search.Suggestion
	for _, p := range s.points {
		for twin := 0; twin < 2; twin++ {
			out = append(out, search.Suggestion{ID: s.nextID, Assignment: p.Clone(), BudgetFrac: frac})
			s.nextID++
		}
	}
	return out
}

func (s *twinSearcher) Observe([]search.Report) {}

// fixedParallel is the local backend with every batch's real parallelism
// fixed at n, whatever the job's slot count.
type fixedParallel struct {
	exec.Backend
	n int
}

func (f fixedParallel) Run(ctx context.Context, trials []exec.Trial, _ int) ([]*trainer.Result, []error) {
	return f.Backend.Run(ctx, trials, f.n)
}

// TestTwinsShareAStartAndWorkersDoNotMatter runs a job whose batches hold
// exact twins (one point twice) and cost twins (the first and third points
// differ only in learning rate): every twin of a batch starts where its
// siblings do, the second rung's four batch-32 trials all continue one
// state, and the JobResult is the same bytes whatever the parallelism.
func TestTwinsShareAStartAndWorkersDoNotMatter(t *testing.T) {
	spec := smallJob(lenetMNIST, 42)
	spec.Searcher = func(params.Space, *xrand.Source) (search.Searcher, error) {
		return &twinSearcher{points: []params.Assignment{
			{params.KeyBatchSize: 32, params.KeyLearningRate: 0.01},
			{params.KeyBatchSize: 256, params.KeyLearningRate: 0.05},
			{params.KeyBatchSize: 32, params.KeyLearningRate: 0.05},
		}}, nil
	}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		runner := testTuneRunner()
		runner.Exec = fixedParallel{Backend: exec.NewLocal(runner.Trainer), n: workers}
		res, counts, err := New(runner).RunJobCounts(t.Context(), spec)
		if err != nil {
			t.Fatal(err)
		}
		// Of the second rung's four batch-32 trials, the two whose learning
		// rate differs from the last first-rung batch-32 completion's are
		// cost twins, whichever point that completion trained.
		if counts.Trials != 12 || counts.Inheriting != 6 || counts.CostTwins != 2 || counts.ProfileEpochs != 6 {
			t.Fatalf("workers %d: counts %+v, want 12 trials of which the 6 second-rung ones inherit, 2 as cost twins", workers, counts)
		}
		byID := map[int]tune.TrialRecord{}
		for _, rec := range res.Trials {
			byID[rec.ID] = rec
		}
		if a, b := byID[6], byID[10]; a.StartSys != b.StartSys {
			t.Fatalf("second-rung cost twins 6/10 started on %v and %v", a.StartSys, b.StartSys)
		}
		for id := 0; id < 12; id += 2 {
			a, b := byID[id], byID[id+1]
			if a.StartSys != b.StartSys {
				t.Fatalf("twins %d/%d started on %v and %v", id, id+1, a.StartSys, b.StartSys)
			}
			if id < 6 && a.StartSys != spec.BaseSys {
				t.Fatalf("first-rung trial %d started on %v, want the base", id, a.StartSys)
			}
			if id >= 6 {
				if a.StartSys == spec.BaseSys {
					t.Fatalf("promoted trial %d started on the base configuration", id)
				}
				if a.Result.Epochs[1].Sys != a.StartSys {
					t.Fatalf("promoted trial %d: first epoch ran on %v, started on %v", id, a.Result.Epochs[1].Sys, a.StartSys)
				}
			}
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers %d: JobResult differs from workers 1", workers)
		}
	}
}
