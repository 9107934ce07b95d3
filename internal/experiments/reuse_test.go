package experiments

import "testing"

// TestReuseIdenticalAndSaving pins the reuse trace's claims: the cached
// sweep produces identical results while training the prefix exactly
// once, and the tuning job agrees on Best/TuningTime cache on and off.
func TestReuseIdenticalAndSaving(t *testing.T) {
	res := result[*ReuseResult](t, "reuse")
	if !res.Identical {
		t.Fatal("cached sweep or tuning job diverged from uncached")
	}
	off, on := res.Rows[0], res.Rows[1]
	if off.Trials != res.SysConfigs || on.Trials != res.SysConfigs {
		t.Fatalf("rows cover %d/%d trials, want %d", off.Trials, on.Trials, res.SysConfigs)
	}
	if on.EpochsTrained != uint64(res.Epochs) {
		t.Fatalf("cached sweep trained %d epochs, want exactly one prefix (%d)", on.EpochsTrained, res.Epochs)
	}
	if want := uint64((res.SysConfigs - 1) * res.Epochs); on.EpochsSaved != want {
		t.Fatalf("cached sweep saved %d epochs, want %d", on.EpochsSaved, want)
	}
	if off.EpochsTrained != uint64(res.SysConfigs*res.Epochs) || off.EpochsSaved != 0 {
		t.Fatalf("uncached row malformed: %+v", off)
	}
	if res.BestScore <= 0 || res.TuningTime <= 0 {
		t.Fatalf("tuning-job outcomes missing: %+v", res)
	}
}
