package experiments

import "testing"

// TestSpotSavings is the heterogeneous cluster plane's acceptance
// experiment: a half-spot EC2 fleet with checkpointed recovery must beat
// the all-on-demand fleet on total dollars while staying within a bounded
// tuning-time inflation — and the revocations must be real (the spot run
// survives interruptions, it doesn't dodge them).
func TestSpotSavings(t *testing.T) {
	res := result[*SpotSavingsResult](t, "spot-savings")
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	od, spot := res.Rows[0], res.Rows[1]
	if od.SpotNodes != 0 || od.Revocations != 0 {
		t.Fatalf("on-demand fleet saw spot activity: %+v", od)
	}
	if spot.SpotNodes == 0 || spot.OnDemandNodes == 0 {
		t.Fatalf("spot fleet not mixed: %+v", spot)
	}
	if spot.Revocations == 0 {
		t.Fatal("spot run saw no revocations; the comparison demonstrates nothing")
	}
	if spot.SalvagedEpochs == 0 {
		t.Fatal("revoked trials salvaged no epochs despite the trial cache")
	}
	if spot.CostUSD >= od.CostUSD {
		t.Fatalf("spot fleet not cheaper: %.2f$ vs %.2f$ on-demand", spot.CostUSD, od.CostUSD)
	}
	if res.TimeInflation > 1.25 {
		t.Fatalf("tuning time inflated %.2fx (> 1.25x bound)", res.TimeInflation)
	}
	if spot.BestAccuracy != od.BestAccuracy {
		t.Fatalf("fleets disagree on best accuracy: %v vs %v", spot.BestAccuracy, od.BestAccuracy)
	}
}
