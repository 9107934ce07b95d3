package exec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pipetune/internal/metrics"
)

// TestStatsFrameRoundTrip pins the Stats frame codec: a populated
// snapshot (sketch buckets included) survives encode/decode exactly,
// and a truncated one, or one with a non-finite sketch, is refused.
func TestStatsFrameRoundTrip(t *testing.T) {
	st := newWorkerStats()
	st.observeTrial(0.125, 3)
	st.observeTrial(1.5, 2)
	want := st.series()

	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeStats(wb, want)
	got, err := decodeStats(wb.b)
	if err != nil {
		t.Fatalf("decodeStats: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, err := decodeStats(wb.b[:len(wb.b)-1]); err == nil {
		t.Fatal("truncated stats frame must not decode")
	}

	// A sketch sum, min or max that is not finite and non-negative is a
	// corrupt frame: merged into the registry, a +Inf or NaN would make
	// the JSON snapshot at GET /v1/metrics unencodable for good.
	for name, corrupt := range map[string]func(*WorkerSeries){
		"+Inf sum":     func(s *WorkerSeries) { s.TrialSeconds.Sum = math.Inf(1) },
		"NaN min":      func(s *WorkerSeries) { s.TrainEpochSeconds.Min = math.NaN() },
		"negative max": func(s *WorkerSeries) { s.EvalSeconds.Max = -1 },
	} {
		bad := st.series()
		corrupt(&bad)
		wb.b = wb.b[:0]
		encodeStats(wb, bad)
		if _, err := decodeStats(wb.b); !errors.Is(err, errFrameCorrupt) {
			t.Errorf("%s: decodeStats err = %v, want a corrupt frame", name, err)
		}
	}
}

// sumCounterFamily totals a counter family's samples across label sets.
func sumCounterFamily(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			var n uint64
			for _, s := range f.Samples {
				n += uint64(s.Value)
			}
			return n
		}
	}
	return 0
}

// sumSummaryCount totals a summary family's observation counts.
func sumSummaryCount(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			var n uint64
			for _, s := range f.Samples {
				n += s.Count
			}
			return n
		}
	}
	return 0
}

// TestIngestWorkerSeriesDeltas drives the cumulative-snapshot diffing
// directly: repeated snapshots must fold in only their increments, a
// re-registered worker restarts from a zero baseline without double
// counting, and stale (regressed) snapshots are ignored.
func TestIngestWorkerSeriesDeltas(t *testing.T) {
	r := newTestRemote(t)
	reg := r.MetricsRegistry()
	w1 := register(t, r, "w1", 1)

	snap := func(trials, epochs uint64, secs ...float64) WorkerSeries {
		d := metrics.NewDistribution()
		for _, s := range secs {
			d.Observe(s)
		}
		return WorkerSeries{Trials: trials, Epochs: epochs, TrialSeconds: d.Snapshot()}
	}

	if err := r.ingestWorkerSeries(w1, snap(2, 4, 0.1, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := r.ingestWorkerSeries(w1, snap(3, 6, 0.1, 0.2, 0.3)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 3 {
		t.Fatalf("trials after two cumulative snapshots = %d, want 3", got)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_epochs_total"); got != 6 {
		t.Fatalf("epochs = %d, want 6", got)
	}
	if got := sumSummaryCount(t, reg, "pipetune_worker_trial_seconds"); got != 3 {
		t.Fatalf("trial-seconds observations = %d, want 3", got)
	}

	// A regressed snapshot (e.g. duplicated delivery of an older beat)
	// must not subtract or re-add.
	if err := r.ingestWorkerSeries(w1, snap(1, 2, 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 3 {
		t.Fatalf("trials after stale snapshot = %d, want 3", got)
	}

	// Re-registration: same name, fresh session, cumulative restart at
	// zero. The fleet aggregate must only grow by the new session's work.
	r.evictWorker(w1, "test")
	if err := r.ingestWorkerSeries(register(t, r, "w1", 1), snap(2, 4, 0.5, 0.6)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 5 {
		t.Fatalf("trials after re-registration = %d, want 3+2=5", got)
	}

	// Unknown workers are rejected.
	if err := r.ingestWorkerSeries("nope", snap(1, 1)); err == nil {
		t.Fatal("unknown worker must be rejected")
	}
}

// TestIngestIsAtomicToScrapes hammers heartbeat ingests against both
// scrape forms. Every shipped snapshot has exactly one epoch observation
// per trial, so a scrape that shows a worker's trial count beside a
// different epoch-observation count caught an ingest half-applied — the
// torn read that let a scraper using trials as its "all delivered"
// barrier see epochs arrive late.
func TestIngestIsAtomicToScrapes(t *testing.T) {
	r := newTestRemote(t)
	reg := r.MetricsRegistry()
	w1 := register(t, r, "w1", 1)
	const beats = 3000
	done := make(chan error, 1)
	go func() {
		epochs := metrics.NewDistribution()
		for n := uint64(1); n <= beats; n++ {
			epochs.Observe(0.01)
			s := WorkerSeries{Trials: n, Epochs: n, TrainEpochSeconds: epochs.Snapshot()}
			if err := r.ingestWorkerSeries(w1, s); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	textValue := func(text, series string) uint64 {
		_, rest, ok := strings.Cut(text, series+" ")
		if !ok {
			return 0
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
		return v
	}
	for scrapes := 0; ; scrapes++ {
		var trials, epochs uint64
		if scrapes%2 == 0 {
			for _, f := range reg.Snapshot().Families {
				for _, smp := range f.Samples {
					switch f.Name {
					case "pipetune_worker_trials_total":
						trials += uint64(smp.Value)
					case "pipetune_worker_train_epoch_seconds":
						epochs += smp.Count
					}
				}
			}
		} else {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			trials = textValue(buf.String(), `pipetune_worker_trials_total{worker="w1"}`)
			epochs = textValue(buf.String(), `pipetune_worker_train_epoch_seconds_count{worker="w1"}`)
		}
		if trials != epochs {
			t.Fatalf("scrape %d: %d trials beside %d epoch observations", scrapes, trials, epochs)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if trials = sumCounterFamily(t, reg, "pipetune_worker_trials_total"); trials != beats {
				t.Fatalf("%d trials ingested, want %d", trials, beats)
			}
			return
		default:
		}
	}
}

// TestWorkerSeriesShipOverStream runs real trials on a real fleet and
// requires the heartbeat-shipped aggregates to converge on what was
// computed: every trial, one compute-time observation per trial, and
// their epochs.
func TestWorkerSeriesShipOverStream(t *testing.T) {
	r := startFleet(t, 2, RemoteConfig{})
	_, errs := r.Run(context.Background(), realTrials(smallTrainer(), 4), 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	reg := r.MetricsRegistry()
	waitFor(t, r, "the fleet aggregates to converge", func() bool {
		return sumCounterFamily(t, reg, "pipetune_worker_trials_total") == 4 &&
			sumSummaryCount(t, reg, "pipetune_worker_trial_seconds") == 4
	})
	if sumCounterFamily(t, reg, "pipetune_worker_epochs_total") == 0 {
		t.Fatal("epoch aggregate never shipped")
	}
}

// TestWireTrafficCounters checks that running work lands rx/tx frame and
// byte counts in the wire="binary" series operators already scrape.
func TestWireTrafficCounters(t *testing.T) {
	r := startFleet(t, 1, RemoteConfig{})
	if _, errs := r.Run(context.Background(), realTrials(smallTrainer(), 2), 0); errs[0] != nil || errs[1] != nil {
		t.Fatalf("run failed: %v", errs)
	}
	counted := map[string]float64{} // "family dir" -> total
	for _, f := range r.MetricsRegistry().Snapshot().Families {
		for _, s := range f.Samples {
			if s.Labels["wire"] == "binary" {
				counted[f.Name+" "+s.Labels["dir"]] += s.Value
			}
		}
	}
	for _, series := range []string{
		"pipetune_exec_wire_frames_total rx", "pipetune_exec_wire_frames_total tx",
		"pipetune_exec_wire_bytes_total rx", "pipetune_exec_wire_bytes_total tx",
	} {
		if counted[series] == 0 {
			t.Fatalf("%s counted no traffic under wire=\"binary\": %v", series, counted)
		}
	}
}

// TestFleetStatusFromRegistry pins the satellite invariant that
// FleetStatus derives its trial counters from the metrics registry.
func TestFleetStatusFromRegistry(t *testing.T) {
	r := startFleet(t, 1, RemoteConfig{})
	trials := realTrials(smallTrainer(), 2)
	if _, errs := r.Run(context.Background(), trials, 0); errs[0] != nil || errs[1] != nil {
		t.Fatalf("run failed: %v", errs)
	}
	fs := r.Fleet()
	reg := sumCounterFamily(t, r.MetricsRegistry(), "pipetune_exec_completed_trials_total")
	if uint64(fs.CompletedTrials) != reg || reg != 2 {
		t.Fatalf("FleetStatus.CompletedTrials=%d, registry=%d, want both 2", fs.CompletedTrials, reg)
	}
}
