package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"pipetune/api"
	"pipetune/internal/trainer"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, {200, 95, true}, // ten samples beyond p95 need 200
		{999, 99, false}, {1000, 99, true},
		{19, 50, false}, {20, 50, true},
		{0, 50, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 250)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentileOf(xs, 99); ok {
		t.Error("p99 of 250 samples reported; only 2.5 samples lie beyond it")
	}
	if v, ok := percentileOf(xs, 95); !ok || v < 236 || v > 238 {
		t.Errorf("p95 of 0..249 = %v, %v", v, ok)
	}
}

// TestQuartilesMatchPython pins the A/A spread to what the driver
// computes: statistics.quantiles(xs, n=4), exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestCoverageCountsOverlapOnce(t *testing.T) {
	clip := interval{100, 200}
	for _, c := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"inside", []interval{{110, 120}}, 10},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}, {145, 148}}, 50},
		{"clipped to the parent", []interval{{50, 120}, {190, 300}}, 30},
		{"outside", []interval{{0, 100}, {200, 250}}, 0},
		{"unsorted input", []interval{{180, 190}, {110, 120}}, 20},
	} {
		if got := coverage(clip, c.ivs); got != c.want {
			t.Errorf("%s: coverage = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSplitRunSumsToRun is the self-time rule: a layer's self time is its
// span minus what its children cover, so the four parts of a run segment
// add up to the segment whatever the overlap between parallel trials.
func TestSplitRunSumsToRun(t *testing.T) {
	run := interval{0, 1000}
	execRuns := []interval{{100, 400}, {500, 900}}
	onEpochs := []interval{{150, 200}, {180, 260}, {600, 700}} // two parallel trials overlap
	lookups := []interval{{160, 170}, {190, 200}, {610, 650}}
	adds := []interval{{410, 450}, {910, 930}}
	exec, core, lookup, add, self := splitRun(run, execRuns, onEpochs, lookups, adds)
	if exec != 700-210 || core != 210-60 || lookup != 60 || add != 60 || self != 1000-700-60 {
		t.Errorf("splitRun = exec %v core %v gt lookup %v add %v self %v", exec, core, lookup, add, self)
	}
	if sum := exec + core + lookup + add + self; sum != 1000 {
		t.Errorf("parts sum to %v, want the run's 1000", sum)
	}
}

func syntheticResult(trials int, r *rand.Rand) *api.JobResult {
	res := &api.JobResult{}
	for id := 0; id < trials; id++ {
		tr := api.TrialRecord{ID: id, Result: &trainer.Result{}}
		tr.Hyper.BatchSize = 32 << (id % 3)
		tr.Hyper.LearningRate = 0.01 * float64(id+1)
		tr.Hyper.Epochs = 3
		for e := 0; e <= 3; e++ {
			tr.Result.Epochs = append(tr.Result.Epochs, trainer.EpochStats{
				Epoch: e, TrainLoss: r.Float64(), Accuracy: r.Float64(),
				Duration: r.Float64(), // simulation half: must not enter the digest
			})
		}
		res.Trials = append(res.Trials, tr)
	}
	return res
}

func TestTrainingDigestIgnoresOrderAndSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	res := syntheticResult(22, r)
	want := trainingDigest(res)

	shuffled := res.Clone()
	r.Shuffle(len(shuffled.Trials), func(i, j int) {
		shuffled.Trials[i], shuffled.Trials[j] = shuffled.Trials[j], shuffled.Trials[i]
	})
	if got := trainingDigest(shuffled); got != want {
		t.Error("digest depends on trial completion order")
	}
	sim := res.Clone()
	sim.Trials[3].Result.Epochs[2].Duration *= 2
	sim.Trials[3].Result.FinalSys.Cores = 16
	sim.TuningTime = 99
	if got := trainingDigest(sim); got != want {
		t.Error("digest depends on the simulation half")
	}
	trained := res.Clone()
	l := &trained.Trials[3].Result.Epochs[2].TrainLoss
	*l = math.Float64frombits(math.Float64bits(*l) ^ 1)
	if got := trainingDigest(trained); got == want {
		t.Error("digest missed a one-bit change of a training loss")
	}
}

func TestGateFlagsDivergingOccurrences(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	good := syntheticResult(4, r)
	rec := func(pipetune bool, res *api.JobResult) jobRecord {
		return jobRecord{spec: newJob("bfs/rodinia", 7, pipetune), id: "job", status: api.JobStatus{State: api.StateDone, Result: res}}
	}
	g := newGate()
	g.observe(rec(true, good))
	g.observe(rec(false, good)) // the tune-v1 twin trains the same thing
	if len(g.violations) != 0 {
		t.Fatalf("equal occurrences flagged: %v", g.violations)
	}
	bad := good.Clone()
	bad.Trials[0].Result.Epochs[1].Accuracy += 1e-9
	g.observe(rec(true, bad))
	if len(g.violations) != 1 {
		t.Fatalf("diverging training not flagged exactly once: %v", g.violations)
	}
	v1 := good.Clone()
	v1.TuningTime++ // same training, different bytes
	g.observe(rec(false, v1))
	if len(g.violations) != 2 {
		t.Fatalf("diverging tune-v1 result not flagged: %v", g.violations)
	}
}

// TestSmokeBothBackends drives a two-job trace (a pipetune job and its
// tune-v1 twin) through the real daemon on each backend, traced, and
// checks what the harness promises: jobs end done, the twins and the
// backends train the same thing, every seam produced spans, and the
// shares of a job's latency sum to one.
func TestSmokeBothBackends(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g := newGate()
	for _, remote := range []bool{false, true} {
		tr := newTracer()
		d, err := boot(t.TempDir(), remote, tr)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{d: d, t: tr, epoch: tr.epoch}
		var timed []jobRecord
		for _, pipetune := range []bool{true, false} {
			spec := newJob("bfs/rodinia", 3, pipetune)
			spec.req.Epochs = 1
			rec := r.tenant(ctx, spec, 0, len(timed))
			if rec.err != nil {
				t.Fatalf("remote=%v: %v", remote, rec.err)
			}
			r.record(rec)
			g.observe(rec)
			timed = append(timed, rec)
		}
		spans := resolveJobs(tr.snapshot(), r.jobs, tr)
		seen := map[string]int{}
		for _, s := range spans {
			if s.Job != "" {
				seen[s.Name]++
			}
		}
		for _, name := range []string{spanJob, spanClientSubmit, spanClientFetch, spanHTTPSubmit, spanHTTPStatus,
			spanQueue, spanRun, spanNotify, spanExecRun, spanOnEpoch, spanGTLookup} {
			if seen[name] == 0 {
				t.Errorf("remote=%v: no %s span resolved to a job", remote, name)
			}
		}
		res := &result{Metrics: map[string]metric{}}
		attribute(res, tr, spans, timed, r)
		sum := 0.0
		for _, part := range []string{"submit", "queue", "exec", "core", "gt", "tune_self", "notify", "fetch", "unattributed"} {
			sum += res.Metrics["share."+part].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("remote=%v: shares sum to %v", remote, sum)
		}
		if u := res.Metrics["share.unattributed"].Value; math.Abs(u) > 0.05 {
			t.Errorf("remote=%v: %.1f%% of job latency unattributed", remote, u*100)
		}
		if got := len(tr.harvested()); got == 0 {
			t.Errorf("remote=%v: no trial harvested for the probes", remote)
		}
		d.close()
	}
	if len(g.violations) != 0 {
		t.Errorf("correctness gate across modes and backends: %v", g.violations)
	}
}
