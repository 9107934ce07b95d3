package experiments

import (
	"math"
	"testing"

	"pipetune/internal/dataset"
	"pipetune/internal/perf"
	"pipetune/internal/sched"
	"pipetune/internal/stats"
	"pipetune/internal/workload"
)

// The experiment tests assert the *shapes* the paper reports (who wins, in
// which direction) on the scaled-down quick configuration; TestGoldens
// holds the rendered tables still. Both read one run per experiment.

// unshrunk lists the experiments that keep the quick configuration under
// -short, because they cost next to nothing at it (fig1, fig2 and fig3bc
// read none of the sizes -short shrinks).
var unshrunk = map[string]bool{
	"fig1": true, "fig2": true, "fig3a": true, "fig3bc": true, "fig8": true,
	"fair-share": true, "scale-out": true, "reuse": true, "spot-savings": true,
}

// testCfg is experiment id's configuration. -short shrinks the corpus,
// epoch budget and trace length further so `go test -short ./...`
// finishes in a few seconds. The asserted shapes derive from simulated
// durations (Table 3 full sizes), so they survive the smaller corpus; the
// goldens pin the quick sizing and are skipped where it shrank.
func testCfg(id string) Config {
	cfg := quickConfig()
	if testing.Short() && !unshrunk[id] {
		cfg.Data = dataset.Config{TrainSize: 64, TestSize: 32}
		cfg.Epochs = 3
		cfg.MultiTenantJobs = 4
	}
	return cfg
}

// runs holds each experiment's one run per test binary.
var runs = map[string]struct {
	res Result
	err error
}{}

// result returns experiment id's result at testCfg(id), running it on
// first use, so its shape test and its golden read the same run.
func result[R Result](t *testing.T, id string) R {
	t.Helper()
	r, ok := runs[id]
	for _, e := range Experiments {
		if !ok && e.ID == id {
			r.res, r.err = e.Run(testCfg(id))
			runs[id], ok = r, true
		}
	}
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.res.(R)
}

func TestFigure1Shapes(t *testing.T) {
	res := result[*Figure1Result](t, "fig1")
	if len(res.Rows) != 18 { // 3 instances x 6 parameter counts
		t.Fatalf("figure 1 has %d rows, want 18", len(res.Rows))
	}
	// Exponential growth: each added parameter triples time and cost.
	byInstance := map[string][]Figure1Row{}
	for _, row := range res.Rows {
		byInstance[row.Instance.String()] = append(byInstance[row.Instance.String()], row)
	}
	for inst, rows := range byInstance {
		for i := 1; i < len(rows); i++ {
			ratio := rows[i].TuningHours / rows[i-1].TuningHours
			if ratio < 2.9 || ratio > 3.1 {
				t.Fatalf("%s: hours ratio %v at k=%d, want ~3", inst, ratio, rows[i].NumParams)
			}
			if rows[i].CostUSD <= rows[i-1].CostUSD {
				t.Fatalf("%s: cost not growing", inst)
			}
		}
	}
}

func TestFigure2RepetitiveEpochs(t *testing.T) {
	res := result[*Figure2Result](t, "fig2")
	if len(res.Events) != perf.NumEvents || len(res.Cells) != perf.NumEvents {
		t.Fatalf("figure 2 has %d events", len(res.Events))
	}
	if len(res.Phases) != 6 {
		t.Fatalf("figure 2 has %d phases, want init + 5 epochs", len(res.Phases))
	}
	// Figure 2's key observation: events repeat across epochs — the mean
	// coefficient of variation over the training epochs (init excluded)
	// is small.
	totalCV, n := 0.0, 0
	for _, row := range res.Cells {
		m := stats.Mean(row[1:])
		if m <= 0 {
			continue
		}
		ss := 0.0
		for _, v := range row[1:] {
			ss += (v - m) * (v - m)
		}
		totalCV += math.Sqrt(ss/float64(len(row)-1)) / m
		n++
	}
	if cv := totalCV / float64(n); cv > 0.10 {
		t.Fatalf("epoch-to-epoch variation %.3f too high for 'repetitive behaviour'", cv)
	}
	// Init column must differ from the training epochs.
	different := 0
	for _, row := range res.Cells {
		if row[0] < row[1]*0.8 || row[0] > row[1]*1.2 {
			different++
		}
	}
	if different < perf.NumEvents/4 {
		t.Fatalf("only %d events distinguish init from training", different)
	}
}

func TestFigure3aShapes(t *testing.T) {
	res := result[*Figure3aResult](t, "fig3a")
	if len(res.Rows) != 3 {
		t.Fatalf("figure 3a has %d rows", len(res.Rows))
	}
	prevDur := 0.0
	for _, row := range res.Rows {
		// Larger batches: worse accuracy, shorter runtime, less energy.
		if row.AccuracyPct > 1 {
			t.Fatalf("batch %d accuracy diff %+.1f%% should not be positive", row.BatchSize, row.AccuracyPct)
		}
		if row.DurationPct >= 0 {
			t.Fatalf("batch %d duration diff %+.1f%% should be negative", row.BatchSize, row.DurationPct)
		}
		if row.EnergyPct >= 0 {
			t.Fatalf("batch %d energy diff %+.1f%% should be negative", row.BatchSize, row.EnergyPct)
		}
		if row.DurationPct >= prevDur && prevDur != 0 {
			t.Fatalf("duration diffs not monotone: %v then %v", prevDur, row.DurationPct)
		}
		prevDur = row.DurationPct
	}
	// The largest batch loses the most accuracy.
	if res.Rows[2].AccuracyPct > res.Rows[0].AccuracyPct {
		t.Fatalf("batch 1024 accuracy loss (%v) smaller than batch 64 (%v)",
			res.Rows[2].AccuracyPct, res.Rows[0].AccuracyPct)
	}
}

func TestFigure3bcShapes(t *testing.T) {
	res := result[*Figure3bcResult](t, "fig3bc")
	if len(res.Rows) != 9 {
		t.Fatalf("figure 3b/c has %d rows, want 9", len(res.Rows))
	}
	// Paper's envelope: batch 64 slows down at 8 cores, batch 1024 speeds
	// up, and energy follows runtime.
	small, err := res.row(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if small.DurationPct <= 0 {
		t.Fatalf("batch 64 at 8 cores should slow down, got %+.1f%%", small.DurationPct)
	}
	large, err := res.row(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if large.DurationPct >= 0 {
		t.Fatalf("batch 1024 at 8 cores should speed up, got %+.1f%%", large.DurationPct)
	}
	if large.EnergyPct >= 0 {
		t.Fatalf("batch 1024 at 8 cores should save energy, got %+.1f%%", large.EnergyPct)
	}
	// Scaling ratio ordered by batch size at every core count.
	for _, cores := range []int{2, 4, 8} {
		r64, _ := res.row(64, cores)
		r1024, _ := res.row(1024, cores)
		if r1024.DurationPct >= r64.DurationPct {
			t.Fatalf("at %d cores batch 1024 (%v%%) should scale better than batch 64 (%v%%)",
				cores, r1024.DurationPct, r64.DurationPct)
		}
	}
}

func TestFigure5Grid(t *testing.T) {
	res := result[*Figure5Result](t, "fig5")
	if len(res.Rows) != 12 { // 4 core levels x 3 job counts
		t.Fatalf("figure 5 has %d rows, want 12", len(res.Rows))
	}
	// The paper's observation: only a few system configurations yield
	// runtime improvements; heavy contention must hurt.
	worst := 0.0
	for _, row := range res.Rows {
		if row.Jobs == 4 && row.Cores == 1 {
			worst = row.RuntimeImpPct
		}
	}
	if worst >= 0 {
		t.Fatalf("1 core / 4 jobs should degrade runtime, got %+.1f%%", worst)
	}
	positives := 0
	for _, row := range res.Rows {
		if row.RuntimeImpPct > 0 {
			positives++
		}
	}
	if positives > len(res.Rows)/2 {
		t.Fatalf("%d/12 configurations improved runtime; paper says only a few", positives)
	}
}

func TestTable2Shapes(t *testing.T) {
	res := result[*Table2Result](t, "table2")
	if len(res.Rows) != 4 {
		t.Fatalf("table 2 has %d rows", len(res.Rows))
	}
	arb, _ := res.row("Arbitrary")
	v1, _ := res.row("Tune V1")
	v2, _ := res.row("Tune V2")
	pt, _ := res.row("PipeTune")

	// Tuning beats arbitrary configuration on accuracy.
	if v1.AccuracyPct <= arb.AccuracyPct {
		t.Fatalf("V1 accuracy %.2f not above arbitrary %.2f", v1.AccuracyPct, arb.AccuracyPct)
	}
	// PipeTune: accuracy on par with V1 (and >= V2), lowest tuning time.
	if pt.AccuracyPct < v1.AccuracyPct-3 {
		t.Fatalf("PipeTune accuracy %.2f well below V1 %.2f", pt.AccuracyPct, v1.AccuracyPct)
	}
	if pt.TuningSecs >= v1.TuningSecs {
		t.Fatalf("PipeTune tuning %.0f s not below V1 %.0f s", pt.TuningSecs, v1.TuningSecs)
	}
	if pt.TuningSecs >= v2.TuningSecs {
		t.Fatalf("PipeTune tuning %.0f s not below V2 %.0f s", pt.TuningSecs, v2.TuningSecs)
	}
	// V2 pays for the larger search space.
	if v2.TuningSecs <= v1.TuningSecs {
		t.Fatalf("V2 tuning %.0f s not above V1 %.0f s", v2.TuningSecs, v1.TuningSecs)
	}
	// PipeTune's selected model trains no slower than V1's.
	if pt.TrainingSecs > v1.TrainingSecs {
		t.Fatalf("PipeTune training %.0f s above V1 %.0f s", pt.TrainingSecs, v1.TrainingSecs)
	}
}

func TestFigure8FamiliesSeparate(t *testing.T) {
	res := result[*Figure8Result](t, "fig8")
	if len(res.Rows) != 4 {
		t.Fatalf("figure 8 has %d rows", len(res.Rows))
	}
	get := func(m workload.Model, ds workload.Dataset) Figure8Row {
		row, err := res.row(workload.Workload{Model: m, Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	lenetM := get(workload.LeNet5, workload.MNIST)
	lenetF := get(workload.LeNet5, workload.FashionMNIST)
	cnn := get(workload.CNN, workload.News20)
	lstm := get(workload.LSTM, workload.News20)

	// Type-I workloads share a cluster; Type-II share the other.
	if lenetM.MajorityCluster != lenetF.MajorityCluster {
		t.Fatalf("LeNet workloads split across clusters: %d vs %d",
			lenetM.MajorityCluster, lenetF.MajorityCluster)
	}
	if cnn.MajorityCluster != lstm.MajorityCluster {
		t.Fatalf("News20 workloads split across clusters: %d vs %d",
			cnn.MajorityCluster, lstm.MajorityCluster)
	}
	if lenetM.MajorityCluster == cnn.MajorityCluster {
		t.Fatal("Type-I and Type-II workloads collapsed into one cluster")
	}
	// Majorities should be strong, not 51/49.
	for _, row := range res.Rows {
		major, minor := row.Cluster1, row.Cluster2
		if minor > major {
			major, minor = minor, major
		}
		if float64(major)/float64(major+minor) < 0.8 {
			t.Fatalf("%s cluster majority too weak: %d vs %d", row.Workload.Name(), major, minor)
		}
	}
}

func TestFigures9And10Convergence(t *testing.T) {
	res := result[*ConvergenceResult](t, "fig9")
	if len(res.Curves) != 3 || res.Curves[0].System != "Tune V1" || res.Curves[1].System != "Tune V2" || res.Curves[2].System != "PipeTune" {
		t.Fatalf("curves = %+v, want Tune V1, Tune V2, PipeTune", res.Curves)
	}
	v1, v2, pt := res.Curves[0], res.Curves[1], res.Curves[2]
	// Figure 9: PipeTune reaches a common accuracy level first.
	target := 0.9 * minF(v1.BestAccuracy, v2.BestAccuracy, pt.BestAccuracy)
	timeTo := func(c ConvergenceCurve) float64 {
		for _, p := range c.Points {
			if p.BestAccuracy >= target {
				return p.Time
			}
		}
		return math.Inf(1)
	}
	tPT, tV1, tV2 := timeTo(pt), timeTo(v1), timeTo(v2)
	if !(tPT <= tV1 && tPT <= tV2) {
		t.Fatalf("PipeTune (%.0f s) not fastest to %.2f accuracy (V1 %.0f, V2 %.0f)", tPT, target, tV1, tV2)
	}
	// Figure 10: PipeTune's trials are the shortest on average.
	meanTrial := func(c ConvergenceCurve) float64 {
		sum := 0.0
		for _, p := range c.Points {
			sum += p.TrialDuration
		}
		return sum / float64(len(c.Points))
	}
	if meanTrial(pt) >= meanTrial(v1) {
		t.Fatalf("PipeTune mean trial %.0f s not below V1 %.0f s", meanTrial(pt), meanTrial(v1))
	}
	// PipeTune finishes tuning before V1 and V2.
	if pt.TuningTime >= v1.TuningTime || pt.TuningTime >= v2.TuningTime {
		t.Fatalf("PipeTune tuning %.0f s not below V1 %.0f / V2 %.0f",
			pt.TuningTime, v1.TuningTime, v2.TuningTime)
	}
}

func minF(vals ...float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func TestFigure11Shapes(t *testing.T) {
	res := result[*SingleTenancyResult](t, "fig11")
	workloads := workload.OfType(workload.TypeI, workload.TypeII)
	if len(res.Rows) != len(workloads)*3 {
		t.Fatalf("figure 11 has %d rows, want %d", len(res.Rows), len(workloads)*3)
	}
	for _, w := range workloads {
		v1, err := res.row(w, SystemV1)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := res.row(w, SystemPipeTune)
		if err != nil {
			t.Fatal(err)
		}
		// Headline: PipeTune reduces tuning time without hurting accuracy.
		if pt.TuningSecs >= v1.TuningSecs {
			t.Fatalf("%s: PipeTune tuning %.0f s not below V1 %.0f s", w.Name(), pt.TuningSecs, v1.TuningSecs)
		}
		if pt.AccuracyPct < v1.AccuracyPct-3 {
			t.Fatalf("%s: PipeTune accuracy %.2f well below V1 %.2f", w.Name(), pt.AccuracyPct, v1.AccuracyPct)
		}
		if pt.TuningKJ >= v1.TuningKJ {
			t.Fatalf("%s: PipeTune energy %.1f kJ not below V1 %.1f kJ", w.Name(), pt.TuningKJ, v1.TuningKJ)
		}
	}
}

func TestFigure12Shapes(t *testing.T) {
	res := result[*SingleTenancyResult](t, "fig12")
	workloads := workload.OfType(workload.TypeIII)
	if len(res.Rows) != len(workloads)*3 {
		t.Fatalf("figure 12 has %d rows, want %d", len(res.Rows), len(workloads)*3)
	}
	// Short-epoch workloads: PipeTune must still reduce tuning time on
	// aggregate (per-workload slack is allowed; §7.3 calls this the more
	// challenging setup).
	var v1Total, ptTotal float64
	for _, w := range workloads {
		v1, err := res.row(w, SystemV1)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := res.row(w, SystemPipeTune)
		if err != nil {
			t.Fatal(err)
		}
		v1Total += v1.TuningSecs
		ptTotal += pt.TuningSecs
		if pt.AccuracyPct < v1.AccuracyPct-5 {
			t.Fatalf("%s: PipeTune accuracy %.2f well below V1 %.2f", w.Name(), pt.AccuracyPct, v1.AccuracyPct)
		}
	}
	if ptTotal >= v1Total {
		t.Fatalf("PipeTune Type-III tuning %.0f s not below V1 %.0f s", ptTotal, v1Total)
	}
}

func TestFigure13ResponseTimes(t *testing.T) {
	res := result[*MultiTenancyResult](t, "fig13")
	ptAll, err := res.row("all", SystemPipeTune)
	if err != nil {
		t.Fatal(err)
	}
	v1All, err := res.row("all", SystemV1)
	if err != nil {
		t.Fatal(err)
	}
	v2All, err := res.row("all", SystemV2)
	if err != nil {
		t.Fatal(err)
	}
	if ptAll.MeanResponse >= v1All.MeanResponse {
		t.Fatalf("PipeTune response %.0f s not below V1 %.0f s", ptAll.MeanResponse, v1All.MeanResponse)
	}
	if ptAll.MeanResponse >= v2All.MeanResponse {
		t.Fatalf("PipeTune response %.0f s not below V2 %.0f s", ptAll.MeanResponse, v2All.MeanResponse)
	}
	// Per-type rows exist.
	if _, err := res.row("Type-I", SystemPipeTune); err != nil {
		t.Fatal(err)
	}
	if _, err := res.row("Type-II", SystemPipeTune); err != nil {
		t.Fatal(err)
	}
}

func TestFigure14ResponseTimes(t *testing.T) {
	res := result[*MultiTenancyResult](t, "fig14")
	ptAll, err := res.row("all", SystemPipeTune)
	if err != nil {
		t.Fatal(err)
	}
	v1All, err := res.row("all", SystemV1)
	if err != nil {
		t.Fatal(err)
	}
	if ptAll.MeanResponse >= v1All.MeanResponse {
		t.Fatalf("PipeTune response %.0f s not below V1 %.0f s", ptAll.MeanResponse, v1All.MeanResponse)
	}
}

func TestAblationGroundTruth(t *testing.T) {
	res := result[*AblationGTResult](t, "ablation-gt")
	warm, cold := res.Rows[0], res.Rows[1]
	if warm.MeanTuningS >= cold.MeanTuningS {
		t.Fatalf("warm ground truth (%.0f s) not faster than probing-only (%.0f s)",
			warm.MeanTuningS, cold.MeanTuningS)
	}
	if warm.HitRate <= 0 {
		t.Fatal("warm variant never hit")
	}
	if cold.HitRate != 0 {
		t.Fatalf("disabled ground truth hit rate %v, want 0", cold.HitRate)
	}
}

func TestAblationSearchers(t *testing.T) {
	res := result[*AblationSearcherResult](t, "ablation-searchers")
	if len(res.Rows) != 5 {
		t.Fatalf("searcher ablation has %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		// LeNet/MNIST has 10 classes: anything above ~1.2x chance shows
		// the searcher genuinely evaluated trained models.
		if row.Trials == 0 || row.BestAccuracy <= 0.12 || row.TuningSecs <= 0 {
			t.Fatalf("searcher %s degenerate: %+v", row.Searcher, row)
		}
	}
}

func TestAblationThreshold(t *testing.T) {
	res := result[*AblationThresholdResult](t, "ablation-threshold")
	if len(res.Rows) != 4 {
		t.Fatalf("threshold ablation has %d rows", len(res.Rows))
	}
	// A strict threshold must hit no more often than a loose one.
	strict, loose := res.Rows[0], res.Rows[len(res.Rows)-1]
	if strict.HitRate > loose.HitRate {
		t.Fatalf("strict threshold hit rate %v above loose %v", strict.HitRate, loose.HitRate)
	}
}

func TestAblationProbeBudget(t *testing.T) {
	res := result[*AblationProbeResult](t, "ablation-probe")
	if len(res.Rows) != 4 {
		t.Fatalf("probe ablation has %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TuningSecs <= 0 {
			t.Fatalf("budget %d degenerate: %+v", row.MaxProbeEpochs, row)
		}
	}
}

// TestFairShareThroughput is the dispatcher's acceptance experiment: on a
// deterministic saturated two-tenant trace, deficit round robin gives the
// weight-2 tenant ~2x the weight-1 tenant's completed-job throughput at
// the horizon, while FIFO splits the same trace 1:1.
func TestFairShareThroughput(t *testing.T) {
	res := result[*FairShareResult](t, "fair-share")
	if len(res.Rows) != 4 {
		t.Fatalf("fair share has %d rows, want 4", len(res.Rows))
	}
	gold, err := res.row("fair", "gold")
	if err != nil {
		t.Fatal(err)
	}
	free, err := res.row("fair", "free")
	if err != nil {
		t.Fatal(err)
	}
	if gold.Completed+free.Completed != res.Horizon {
		t.Fatalf("horizon accounting broken: %d + %d != %d", gold.Completed, free.Completed, res.Horizon)
	}
	ratio := float64(gold.Completed) / float64(free.Completed)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("fair policy throughput ratio %.2f (gold %d, free %d), want ~2.0",
			ratio, gold.Completed, free.Completed)
	}
	// (Mean waits are over horizon-completed jobs only, so the slower
	// tenant's figure is survivor-biased low; assert sanity, not order.)
	if gold.MeanWait < 0 || free.MeanWait < 0 {
		t.Errorf("negative mean waits: gold %.1f free %.1f", gold.MeanWait, free.MeanWait)
	}

	// FIFO on the identical trace ignores weights: a 1:1 split.
	fifoGold, err := res.row("fifo", "gold")
	if err != nil {
		t.Fatal(err)
	}
	fifoFree, err := res.row("fifo", "free")
	if err != nil {
		t.Fatal(err)
	}
	fifoRatio := float64(fifoGold.Completed) / float64(fifoFree.Completed)
	if fifoRatio < 0.9 || fifoRatio > 1.1 {
		t.Fatalf("fifo throughput ratio %.2f (gold %d, free %d), want ~1.0",
			fifoRatio, fifoGold.Completed, fifoFree.Completed)
	}
}

func TestSchedulingPoliciesContention(t *testing.T) {
	res := result[*PolicyResult](t, "sched-policies")
	if len(res.Rows) != 3 {
		t.Fatalf("policy comparison has %d rows, want 3", len(res.Rows))
	}
	fifo, err := res.row(sched.NameFIFO)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.MeanResponse <= 0 || row.Makespan <= 0 {
			t.Fatalf("policy %s degenerate: %+v", row.Policy, row)
		}
	}
	// EASY backfill only guarantees the queue head is never delayed;
	// deeper queue positions can shift, so mean response is not bounded by
	// FIFO's in general. On this fixed, deterministic trace it must not
	// materially degrade it (empirical regression bound, not a theorem).
	backfill, err := res.row(sched.NameBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if backfill.MeanResponse > fifo.MeanResponse*1.05 {
		t.Fatalf("backfill mean response %.1f well above FIFO %.1f",
			backfill.MeanResponse, fifo.MeanResponse)
	}
}
