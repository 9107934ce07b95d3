package pipetune

// One benchmark per table and figure of the paper's evaluation (the
// scheduler regression bench is internal/tune's). Each benchmark
// regenerates the artefact end to end and reports its headline quantities
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness (see EXPERIMENTS.md for the paper-vs-measured
// discussion).

import (
	"testing"

	"pipetune/internal/experiments"
	"pipetune/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.DefaultConfig()
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.TuningHours, "6param-tuning-hours")
		b.ReportMetric(last.CostUSD, "6param-cost-usd")
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1] // batch 1024
		b.ReportMetric(last.AccuracyPct, "b1024-accuracy-pct")
		b.ReportMetric(last.DurationPct, "b1024-duration-pct")
		b.ReportMetric(last.EnergyPct, "b1024-energy-pct")
	}
}

func BenchmarkFigure3bc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3bc(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		small, err := res.Row(64, 8)
		if err != nil {
			b.Fatal(err)
		}
		large, err := res.Row(1024, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(small.DurationPct, "b64-8cores-duration-pct")
		b.ReportMetric(large.DurationPct, "b1024-8cores-duration-pct")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		positives := 0
		for _, row := range res.Rows {
			if row.RuntimeImpPct > 0 {
				positives++
			}
		}
		b.ReportMetric(float64(positives), "configs-improving-runtime")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		v1, _ := res.Row("Tune V1")
		pt, _ := res.Row("PipeTune")
		b.ReportMetric(pt.AccuracyPct, "pipetune-accuracy-pct")
		b.ReportMetric(pt.TuningSecs, "pipetune-tuning-s")
		b.ReportMetric((1-pt.TuningSecs/v1.TuningSecs)*100, "tuning-reduction-pct")
		b.ReportMetric(v1.TrainingSecs/pt.TrainingSecs, "training-speedup-x")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Profiles), "profiles-clustered")
		b.ReportMetric(res.Inertia, "inertia")
	}
}

// Figures 9 and 10 plot the same three runs (Tune V1, Tune V2, PipeTune,
// in that order).
func BenchmarkFigure9and10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9and10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		v1, pt := res.Curves[0], res.Curves[2]
		b.ReportMetric(pt.BestAccuracy*100, "pipetune-best-accuracy-pct")
		b.ReportMetric(v1.TuningTime/pt.TuningTime, "tuning-speedup-x")
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var v1T, ptT, v1E, ptE float64
		for _, w := range workload.OfType(workload.TypeI, workload.TypeII) {
			v1, err := res.Row(w, experiments.SystemV1)
			if err != nil {
				b.Fatal(err)
			}
			pt, err := res.Row(w, experiments.SystemPipeTune)
			if err != nil {
				b.Fatal(err)
			}
			v1T += v1.TuningSecs
			ptT += pt.TuningSecs
			v1E += v1.TuningKJ
			ptE += pt.TuningKJ
		}
		b.ReportMetric((1-ptT/v1T)*100, "tuning-reduction-pct")
		b.ReportMetric((1-ptE/v1E)*100, "energy-reduction-pct")
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var v1T, ptT float64
		for _, w := range workload.OfType(workload.TypeIII) {
			v1, err := res.Row(w, experiments.SystemV1)
			if err != nil {
				b.Fatal(err)
			}
			pt, err := res.Row(w, experiments.SystemPipeTune)
			if err != nil {
				b.Fatal(err)
			}
			v1T += v1.TuningSecs
			ptT += pt.TuningSecs
		}
		b.ReportMetric((1-ptT/v1T)*100, "tuning-reduction-pct")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure13(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		v1, err := res.Row("all", experiments.SystemV1)
		if err != nil {
			b.Fatal(err)
		}
		pt, err := res.Row("all", experiments.SystemPipeTune)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-pt.MeanResponse/v1.MeanResponse)*100, "response-reduction-pct")
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		v1, err := res.Row("all", experiments.SystemV1)
		if err != nil {
			b.Fatal(err)
		}
		pt, err := res.Row("all", experiments.SystemPipeTune)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-pt.MeanResponse/v1.MeanResponse)*100, "response-reduction-pct")
	}
}

func BenchmarkAblationNoGroundTruth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationNoGroundTruth(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		warm, cold := res.Rows[0], res.Rows[1]
		b.ReportMetric((1-warm.MeanTuningS/cold.MeanTuningS)*100, "groundtruth-gain-pct")
		b.ReportMetric(warm.HitRate*100, "warm-hit-rate-pct")
	}
}

func BenchmarkAblationSearchers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSearchers(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Searcher == "hyperband" {
				b.ReportMetric(row.BestAccuracy*100, "hyperband-accuracy-pct")
				b.ReportMetric(row.TuningSecs, "hyperband-tuning-s")
			}
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationThreshold(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		loose := res.Rows[len(res.Rows)-1]
		b.ReportMetric(loose.HitRate*100, "loose-hit-rate-pct")
	}
}

func BenchmarkAblationProbeBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationProbeBudget(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		best := res.Rows[0].TuningSecs
		for _, row := range res.Rows {
			if row.TuningSecs < best {
				best = row.TuningSecs
			}
		}
		b.ReportMetric(best, "best-tuning-s")
	}
}

func BenchmarkReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Reuse(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("cached results diverged from uncached")
		}
		b.ReportMetric(float64(res.Rows[1].EpochsSaved), "epochs-saved")
	}
}
