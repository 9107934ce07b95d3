package tune

// Tests for the event-driven scheduler refactor: parity with the legacy
// barrier scheduler under FIFO, determinism, alternative placement
// policies, and the monotone-progress regression.

import (
	"sync"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// hyperbandSpec is baseSpec with the evaluation's default searcher.
func hyperbandSpec() JobSpec {
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.Searcher = nil // default: HyperBand
	return spec
}

// lineageObserver stands in for PipeTune's controller without importing
// internal/core: a configuration's first trial switches to `tuned` after
// its first epoch, and every later trial of the same hyperparameters (the
// rung's epoch budget aside) starts on it.
type lineageObserver struct {
	tuned params.SysConfig
	mu    sync.Mutex
	done  map[params.Hyper]bool
}

func (l *lineageObserver) observerFor(_ int, h params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
	h.Epochs = 0
	l.mu.Lock()
	inherits := l.done[h]
	l.mu.Unlock()
	if inherits {
		sys = l.tuned
	}
	return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		if inherits || s.Epoch != 1 {
			return nil
		}
		l.mu.Lock()
		l.done[h] = true
		l.mu.Unlock()
		return &l.tuned
	}), sys
}

func TestEventSchedulerMatchesBarrierFIFO(t *testing.T) {
	tuned := params.SysConfig{Cores: 4, MemoryGB: 8}
	for _, mk := range []struct {
		name string
		spec func() JobSpec
	}{
		{"grid-v1", func() JobSpec { return baseSpec(ModeV1, MaximizeAccuracy) }},
		{"grid-v2", func() JobSpec { return baseSpec(ModeV2, MaximizeAccuracyPerTime) }},
		{"hyperband-v1", hyperbandSpec},
		{"hyperband-inheriting", func() JobSpec {
			// Both loops build their batches in runBatch, so a promoted
			// trial starts on what its previous rung handed down in both.
			spec := hyperbandSpec()
			spec.BaseHyper.Epochs = 9
			spec.TrialObserver = (&lineageObserver{tuned: tuned, done: map[params.Hyper]bool{}}).observerFor
			return spec
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			r := testRunner()
			event, err := r.RunJob(mk.spec())
			if err != nil {
				t.Fatal(err)
			}
			barrier, err := r.RunJobBarrier(mk.spec(), paperNodes)
			if err != nil {
				t.Fatal(err)
			}
			starts := map[int]params.SysConfig{}
			for _, rec := range barrier.Trials {
				starts[rec.ID] = rec.StartSys
			}
			inherited := 0
			for _, rec := range event.Trials {
				if rec.StartSys != starts[rec.ID] {
					t.Fatalf("trial %d starts on %v, on %v under the barrier", rec.ID, rec.StartSys, starts[rec.ID])
				}
				if rec.StartSys == tuned {
					inherited++
					if rec.Result.Epochs[1].Sys != tuned || rec.Resizes+rec.ResizesDenied != 0 {
						t.Fatalf("trial %d inherited %v but ran its first epoch on %v (%d resizes)",
							rec.ID, tuned, rec.Result.Epochs[1].Sys, rec.Resizes+rec.ResizesDenied)
					}
				}
			}
			if mk.name == "hyperband-inheriting" && inherited == 0 {
				t.Fatal("no promoted trial started on the handed-down configuration")
			}
			if event.TuningTime != barrier.TuningTime {
				t.Fatalf("FIFO event TuningTime %v != barrier %v", event.TuningTime, barrier.TuningTime)
			}
			if event.Best.ID != barrier.Best.ID || event.Best.Score != barrier.Best.Score {
				t.Fatalf("best diverged: event %d/%v vs barrier %d/%v",
					event.Best.ID, event.Best.Score, barrier.Best.ID, barrier.Best.Score)
			}
			if len(event.Trials) != len(barrier.Trials) {
				t.Fatalf("trial counts diverged: %d vs %d", len(event.Trials), len(barrier.Trials))
			}
			// Energy is summed in completion order rather than batch order,
			// so only float rounding may differ.
			if diff := event.TotalEnergy - barrier.TotalEnergy; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("energy diverged: %v vs %v", event.TotalEnergy, barrier.TotalEnergy)
			}
		})
	}
}

func TestEventSchedulerDeterministic(t *testing.T) {
	run := func() *JobResult {
		res, err := testRunner().RunJob(hyperbandSpec())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TuningTime != b.TuningTime || a.Best.ID != b.Best.ID || a.Best.Score != b.Best.Score {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d",
			a.TuningTime, a.Best.ID, b.TuningTime, b.Best.ID)
	}
	for i := range a.Trials {
		if a.Trials[i].ID != b.Trials[i].ID || a.Trials[i].Start != b.Trials[i].Start {
			t.Fatalf("trial schedule diverged at %d", i)
		}
	}
}

func TestEventSchedulerProgressMonotone(t *testing.T) {
	// Regression for the async refactor: the progress curve must be
	// monotone in both time and best accuracy without any post-hoc sort —
	// completions arrive in simulated time order.
	r := testRunner()
	res, err := r.RunJob(hyperbandSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Progress) != len(res.Trials) {
		t.Fatalf("progress has %d points, want %d", len(res.Progress), len(res.Trials))
	}
	for i := 1; i < len(res.Progress); i++ {
		if res.Progress[i].Time < res.Progress[i-1].Time {
			t.Fatalf("progress time decreased at %d: %v < %v",
				i, res.Progress[i].Time, res.Progress[i-1].Time)
		}
		if res.Progress[i].BestAccuracy < res.Progress[i-1].BestAccuracy {
			t.Fatalf("best-accuracy curve decreased at %d", i)
		}
	}
	if res.TuningTime != res.Progress[len(res.Progress)-1].Time {
		t.Fatalf("TuningTime %v != last completion %v",
			res.TuningTime, res.Progress[len(res.Progress)-1].Time)
	}
}

func TestEventSchedulerObservesIncrementally(t *testing.T) {
	// The searcher must receive exactly one report per completed trial, in
	// completion order — not one batched Observe per rung.
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	var calls [][]search.Report
	spec.Searcher = func(space params.Space, rng *xrand.Source) (search.Searcher, error) {
		g, err := search.NewGrid(space, 0, 0)
		if err != nil {
			return nil, err
		}
		return &observeSpy{Searcher: g, calls: &calls}, nil
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(res.Trials) {
		t.Fatalf("Observe called %d times, want once per trial (%d)", len(calls), len(res.Trials))
	}
	for i, reports := range calls {
		if len(reports) != 1 {
			t.Fatalf("Observe call %d carried %d reports, want 1", i, len(reports))
		}
		if reports[0].ID != res.Trials[i].ID {
			t.Fatalf("Observe call %d reported trial %d, completion order says %d",
				i, reports[0].ID, res.Trials[i].ID)
		}
	}
}

// observeSpy records every Observe call made by the runner.
type observeSpy struct {
	search.Searcher
	calls *[][]search.Report
}

func (s *observeSpy) Observe(reports []search.Report) {
	cp := make([]search.Report, len(reports))
	copy(cp, reports)
	*s.calls = append(*s.calls, cp)
	s.Searcher.Observe(reports)
}

func TestResizeEventsFromEpochLog(t *testing.T) {
	// A PipeTune-style trial that probes two configurations and settles
	// must yield one resize event per configuration switch.
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.BaseHyper.Epochs = 3
	probe := params.SysConfig{Cores: 16, MemoryGB: 16}
	settle := params.SysConfig{Cores: 4, MemoryGB: 8}
	spec.TrialObserver = func(_ int, _ params.Hyper, sys params.SysConfig) (trainer.EpochObserver, params.SysConfig) {
		return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
			switch s.Epoch {
			case 1:
				cfg := probe
				return &cfg
			case 2:
				cfg := settle
				return &cfg
			}
			return nil
		}), sys
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trials {
		events := resizeEvents(rec.Result)
		if len(events) != 2 {
			t.Fatalf("trial %d: %d resize events, want 2", rec.ID, len(events))
		}
		if events[0].Sys != probe || events[1].Sys != settle {
			t.Fatalf("trial %d: resize targets %v, want [%v %v]", rec.ID, events, probe, settle)
		}
		if !(0 < events[0].Offset && events[0].Offset < events[1].Offset) {
			t.Fatalf("trial %d: offsets not increasing: %v", rec.ID, events)
		}
		if rec.Resizes+rec.ResizesDenied != 2 {
			t.Fatalf("trial %d: scheduler saw %d+%d resizes, want 2",
				rec.ID, rec.Resizes, rec.ResizesDenied)
		}
	}
}
