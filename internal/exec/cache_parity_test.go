package exec

import (
	"context"
	"encoding/json"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// cachedSmallTrainer is smallTrainer with a trial prefix cache attached —
// the daemon-side shape pipetuned always runs.
func cachedSmallTrainer() *trainer.Runner {
	tr := smallTrainer()
	tr.Cache = trainer.NewTrialCache(0)
	return tr
}

// TestCacheRemoteCatalogParity is the execution-plane half of the
// cache's bit-identity guarantee: with the trial prefix cache enabled —
// daemon-derived CacheKey on every trial, CacheBytes in the shipped
// TrainerConfig so workers keep warm worker-local caches — the local
// backend and a worker fleet across the wire must both reproduce the
// uncached local results byte for byte across the Table 3 catalog. Every
// workload appears twice (same prefix, different system configuration:
// the sys-sweep replay shape), so the second trial exercises a cache hit
// on whichever process trained the first.
func TestCacheRemoteCatalogParity(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog parity runs full trial compute; CI races it in the execution-plane step")
	}
	cat := workload.Catalog()
	trialsFor := func(tr *trainer.Runner) []Trial {
		h := params.DefaultHyper()
		h.Epochs = 2
		out := make([]Trial, 0, 2*len(cat))
		for i, w := range cat {
			first := Trial{
				ID: i, Workload: w, Hyper: h, Sys: params.DefaultSysConfig(),
				Seed: uint64(7000 + i), Trainer: CaptureTrainerConfig(tr),
			}
			if tr.Cache != nil {
				first.CacheKey = tr.PrefixKey(w, h, first.Seed)
			}
			second := first
			second.ID = i + len(cat)
			second.Sys = params.SysConfig{Cores: 16, MemoryGB: 32}
			out = append(out, first, second)
		}
		return out
	}
	run := func(name string, b Backend, tr *trainer.Runner) []string {
		trials := trialsFor(tr)
		res, errs := b.Run(context.Background(), trials, 2)
		out := make([]string, len(res))
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s trial %d (%s): %v", name, i, trials[i].Workload.Name(), err)
			}
			bts, err := json.Marshal(res[i])
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(bts)
		}
		return out
	}

	plain := run("local", NewLocal(smallTrainer()), smallTrainer())

	localCached := cachedSmallTrainer()
	gotLocal := run("cached local", NewLocal(localCached), localCached)

	fleet, _ := startFleet(t, 2, RemoteConfig{})
	gotFleet := run("cached fleet", fleet, cachedSmallTrainer())

	for i := range plain {
		w := cat[i/2%len(cat)]
		if gotLocal[i] != plain[i] {
			t.Errorf("trial %d (%s): cached local diverges from uncached", i, w.Name())
		}
		if gotFleet[i] != plain[i] {
			t.Errorf("trial %d (%s): cached fleet diverges from uncached local", i, w.Name())
		}
	}
	// The local cache must have actually been exercised: each workload's
	// second trial replays (or waits on) its first.
	st := localCached.Cache.Stats()
	if st.TrajectoryHits+st.FlightHits == 0 {
		t.Fatalf("local cached run recorded no reuse: %+v", st)
	}
}
