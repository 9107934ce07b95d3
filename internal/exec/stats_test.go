package exec

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pipetune/internal/metrics"
)

// TestStatsFrameRoundTrip pins the binary Stats frame codec: a populated
// snapshot (sketch buckets included) survives encode/decode exactly.
func TestStatsFrameRoundTrip(t *testing.T) {
	st := newWorkerStats()
	st.observeTrial(0.125, 3)
	st.observeTrial(1.5, 2)
	st.encodeError()
	st.decodeError()
	st.decodeError()
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
	if _, err := decodeStats([]byte{99}); err == nil {
		t.Fatal("unknown stats version must not decode")
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
	r := newTestRemote(t, nil)
	reg := r.MetricsRegistry()
	resp, err := r.Register(RegisterRequest{Name: "w1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}

	snap := func(trials, epochs uint64, secs ...float64) WorkerSeries {
		d := metrics.NewDistribution()
		for _, s := range secs {
			d.Observe(s)
		}
		return WorkerSeries{Trials: trials, Epochs: epochs, TrialSeconds: d.Snapshot()}
	}

	if err := r.IngestWorkerSeries(resp.WorkerID, snap(2, 4, 0.1, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := r.IngestWorkerSeries(resp.WorkerID, snap(3, 6, 0.1, 0.2, 0.3)); err != nil {
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
	if err := r.IngestWorkerSeries(resp.WorkerID, snap(1, 2, 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 3 {
		t.Fatalf("trials after stale snapshot = %d, want 3", got)
	}

	// Re-registration: same name, fresh session, cumulative restart at
	// zero. The fleet aggregate must only grow by the new session's work.
	r.evictWorker(resp.WorkerID, "test")
	resp2, err := r.Register(RegisterRequest{Name: "w1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IngestWorkerSeries(resp2.WorkerID, snap(2, 4, 0.5, 0.6)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 5 {
		t.Fatalf("trials after re-registration = %d, want 3+2=5", got)
	}

	// Unknown workers are rejected.
	if err := r.IngestWorkerSeries("nope", snap(1, 1)); err == nil {
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
	r := newTestRemote(t, nil)
	reg := r.MetricsRegistry()
	resp, err := r.Register(RegisterRequest{Name: "w1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	const beats = 3000
	done := make(chan error, 1)
	go func() {
		epochs := metrics.NewDistribution()
		for n := uint64(1); n <= beats; n++ {
			epochs.Observe(0.01)
			s := WorkerSeries{Trials: n, Epochs: n, TrainEpochSeconds: epochs.Snapshot()}
			if err := r.IngestWorkerSeries(resp.WorkerID, s); err != nil {
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

// TestWorkerSeriesCrossWireParity runs the same trial set over the JSON
// and binary wires and requires the heartbeat-shipped fleet aggregates
// to converge to identical values: same trials, same epochs, same
// observation counts, same total compute seconds modulo wall-clock
// difference (compared as counts only).
func TestWorkerSeriesCrossWireParity(t *testing.T) {
	type agg struct {
		trials, epochs, obs uint64
	}
	runWire := func(wire string) agg {
		r, _ := startFleet(t, 2, RemoteConfig{Wire: wire})
		trials := realTrials(smallTrainer(), 4)
		_, errs := r.Run(context.Background(), trials, 0)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s wire trial %d: %v", wire, i, err)
			}
		}
		reg := r.MetricsRegistry()
		deadline := time.Now().Add(5 * time.Second)
		var a agg
		for {
			a = agg{
				trials: sumCounterFamily(t, reg, "pipetune_worker_trials_total"),
				epochs: sumCounterFamily(t, reg, "pipetune_worker_epochs_total"),
				obs:    sumSummaryCount(t, reg, "pipetune_worker_trial_seconds"),
			}
			if a.trials == 4 && a.obs == 4 {
				return a
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s wire: aggregates never converged: %+v", wire, a)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	j := runWire(WireJSON)
	b := runWire(WireBinary)
	if j != b {
		t.Fatalf("wire aggregates diverge: json %+v, binary %+v", j, b)
	}
	if j.epochs == 0 {
		t.Fatal("epoch aggregate never shipped")
	}
}

// TestWireTrafficCounters checks that running work over each wire lands
// rx/tx frame and byte counts under the right wire label — and only
// that label.
func TestWireTrafficCounters(t *testing.T) {
	counts := func(reg *metrics.Registry, wire string) (frames, bytes uint64) {
		for _, f := range reg.Snapshot().Families {
			for _, s := range f.Samples {
				if s.Labels["wire"] != wire {
					continue
				}
				switch f.Name {
				case "pipetune_exec_wire_frames_total":
					frames += uint64(s.Value)
				case "pipetune_exec_wire_bytes_total":
					bytes += uint64(s.Value)
				}
			}
		}
		return frames, bytes
	}
	for _, wire := range []string{WireJSON, WireBinary} {
		r, _ := startFleet(t, 1, RemoteConfig{Wire: wire})
		trials := realTrials(smallTrainer(), 2)
		if _, errs := r.Run(context.Background(), trials, 0); errs[0] != nil || errs[1] != nil {
			t.Fatalf("%s wire run failed: %v", wire, errs)
		}
		frames, bytes := counts(r.MetricsRegistry(), wire)
		if frames == 0 || bytes == 0 {
			t.Fatalf("%s wire counted no traffic (frames=%d bytes=%d)", wire, frames, bytes)
		}
		other := WireBinary
		if wire == WireBinary {
			other = WireJSON
		}
		if of, ob := counts(r.MetricsRegistry(), other); of != 0 || ob != 0 {
			t.Fatalf("%s-only fleet counted %s traffic (frames=%d bytes=%d)", wire, other, of, ob)
		}
	}
}

// TestFleetStatusFromRegistry pins the satellite invariant that
// FleetStatus derives its trial counters from the metrics registry.
func TestFleetStatusFromRegistry(t *testing.T) {
	r, _ := startFleet(t, 1, RemoteConfig{Wire: WireBinary})
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
